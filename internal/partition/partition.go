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
	DynamicWorkers(n, workers, 1, func() func(int) { return fn })
}

// DynamicChunked is Dynamic with a claim granularity of chunk indices,
// which reduces contention on the shared counter when tasks are tiny.
func DynamicChunked(n, workers, chunk int, fn func(i int)) {
	DynamicWorkers(n, workers, chunk, func() func(int) { return fn })
}

// DynamicWorkers is DynamicChunked for tasks that need scratch space:
// each worker calls newWorker once and runs every index it claims
// through the function it returned, so per-worker buffers (a widened
// query row, say) are made once per worker rather than once per task.
// Run serially, newWorker is called once.
func DynamicWorkers(n, workers, chunk int, newWorker func() func(i int)) {
	if n <= 0 {
		return
	}
	chunk = max(chunk, 1)
	if workers <= 1 || n == 1 {
		fn := newWorker()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	workers = min(workers, (n+chunk-1)/chunk)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			fn := newWorker()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				for i := lo; i < min(lo+chunk, n); i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}
