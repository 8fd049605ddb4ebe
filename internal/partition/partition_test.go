package partition

import (
	"sync/atomic"
	"testing"
)

func TestDynamicCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		for _, n := range []int{0, 1, 7, 1000} {
			hits := make([]atomic.Int32, n)
			Dynamic(n, workers, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestDynamicChunked(t *testing.T) {
	for _, chunk := range []int{1, 3, 16, 1000} {
		n := 257
		hits := make([]atomic.Int32, n)
		DynamicChunked(n, 4, chunk, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("chunk=%d: index %d hit %d times", chunk, i, got)
			}
		}
	}
}

// TestDynamicWorkers requires every index run exactly once, through a
// function made once per worker and never shared between workers.
func TestDynamicWorkers(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		for _, chunk := range []int{1, 4, 300} {
			const n = 257
			hits := make([]atomic.Int32, n)
			var made atomic.Int32
			DynamicWorkers(n, workers, chunk, func() func(int) {
				made.Add(1)
				var busy atomic.Bool
				return func(i int) {
					if !busy.CompareAndSwap(false, true) {
						t.Errorf("workers=%d chunk=%d: a worker function ran concurrently", workers, chunk)
					}
					hits[i].Add(1)
					busy.Store(false)
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d chunk=%d: index %d hit %d times", workers, chunk, i, got)
				}
			}
			if got, most := made.Load(), int32(min(workers, (n+chunk-1)/chunk)); got < 1 || got > most {
				t.Fatalf("workers=%d chunk=%d: %d worker functions made, want 1..%d", workers, chunk, got, most)
			}
		}
	}
}
