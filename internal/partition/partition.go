// Package partition provides the work-distribution strategy every
// parallel phase uses: dynamic self-scheduling (the OpenMP
// "schedule(dynamic)" the paper's Ex-DPC uses for local densities).
// Workers repeatedly claim the next unprocessed task from a shared atomic
// counter, so an expensive task never stalls the pool behind a static
// assignment and no cost estimate is needed.
//
// Both helpers run the caller's function on the calling goroutine when
// workers <= 1, which keeps single-thread measurements free of pool
// overhead (matching the paper's single-thread baselines).
package partition

import (
	"sync"
	"sync/atomic"
)

// Dynamic runs fn(i) for every i in [0, n) using the given number of
// workers with dynamic self-scheduling. fn must be safe for concurrent
// invocation on distinct indices.
func Dynamic(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				fn(int(i))
			}
		}()
	}
	wg.Wait()
}

// DynamicChunked is Dynamic with a claim granularity of chunk indices,
// which reduces contention on the shared counter when tasks are tiny.
func DynamicChunked(n, workers, chunk int, fn func(i int)) {
	if chunk <= 1 {
		Dynamic(n, workers, fn)
		return
	}
	if n <= 0 {
		return
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}
