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
