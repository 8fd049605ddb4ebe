// Package eval provides the measurement machinery of the paper's
// experiments: the Rand index used for all accuracy tables (ground truth
// is Ex-DPC's labelling), the adjusted Rand index, purity, and
// memory-usage measurement for Table 7.
package eval

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"
)

// contingency builds the joint label-count table; noise labels (-1) are
// treated as one ordinary class, as the paper's Rand-index comparisons of
// full labelings imply.
func contingency(a, b []int32) (map[[2]int32]float64, map[int32]float64, map[int32]float64) {
	joint := make(map[[2]int32]float64)
	ma := make(map[int32]float64)
	mb := make(map[int32]float64)
	for i := range a {
		joint[[2]int32{a[i], b[i]}]++
		ma[a[i]]++
		mb[b[i]]++
	}
	return joint, ma, mb
}

func choose2(x float64) float64 { return x * (x - 1) / 2 }

// RandIndex returns the Rand index of two labelings in [0, 1]; 1 means
// identical partitions. It runs in O(n + k_a * k_b) via the contingency
// table, so it is usable at the paper's dataset sizes.
func RandIndex(a, b []int32) float64 {
	if len(a) != len(b) {
		panic("eval: label slices of different lengths")
	}
	n := float64(len(a))
	if n < 2 {
		return 1
	}
	joint, ma, mb := contingency(a, b)
	var sumJoint, sumA, sumB float64
	for _, c := range joint {
		sumJoint += choose2(c)
	}
	for _, c := range ma {
		sumA += choose2(c)
	}
	for _, c := range mb {
		sumB += choose2(c)
	}
	total := choose2(n)
	// Disagreements: pairs together in one partition but not the other.
	disagree := sumA + sumB - 2*sumJoint
	return 1 - disagree/total
}

// AdjustedRandIndex returns the chance-corrected Rand index (Hubert &
// Arabie); 1 for identical partitions, ~0 for independent ones.
func AdjustedRandIndex(a, b []int32) float64 {
	if len(a) != len(b) {
		panic("eval: label slices of different lengths")
	}
	n := float64(len(a))
	if n < 2 {
		return 1
	}
	joint, ma, mb := contingency(a, b)
	var sumJoint, sumA, sumB float64
	for _, c := range joint {
		sumJoint += choose2(c)
	}
	for _, c := range ma {
		sumA += choose2(c)
	}
	for _, c := range mb {
		sumB += choose2(c)
	}
	total := choose2(n)
	expected := sumA * sumB / total
	max := (sumA + sumB) / 2
	if max == expected {
		return 1
	}
	return (sumJoint - expected) / (max - expected)
}

// Purity returns the fraction of points whose predicted cluster's majority
// true label matches their own true label.
func Purity(truth, pred []int32) float64 {
	if len(truth) != len(pred) {
		panic("eval: label slices of different lengths")
	}
	if len(truth) == 0 {
		return 1
	}
	counts := make(map[int32]map[int32]float64)
	for i := range pred {
		m, ok := counts[pred[i]]
		if !ok {
			m = make(map[int32]float64)
			counts[pred[i]] = m
		}
		m[truth[i]]++
	}
	var correct float64
	for _, m := range counts {
		best := 0.0
		for _, c := range m {
			if c > best {
				best = c
			}
		}
		correct += best
	}
	return correct / float64(len(truth))
}

// Mem is one measured call's heap use, in bytes over the heap live
// before it.
type Mem struct {
	// Peak is the largest heap seen while the call ran: the objects it
	// allocated, reachable or not yet swept, sampled every millisecond
	// and once at its end. For a fit that is its index and working
	// memory, the paper's Table 7 comparison.
	Peak uint64
	// Retained is the live-heap growth the call left reachable.
	Retained uint64
}

// heapObjects is the runtime/metrics name of the bytes held by heap
// objects, reachable or not yet swept.
const heapObjects = "/memory/classes/heap/objects:bytes"

// MeasureMem runs fn and returns its peak and retained heap growth. It
// collects garbage before fn, so neither figure counts earlier garbage,
// and after it, so Retained counts only what fn left reachable — for a
// fit, the result the caller keeps alive past this call (with
// runtime.KeepAlive) plus anything fn cached globally. Peak comes from a
// sampling goroutine; an allocation that lives less than a millisecond
// and is collected before fn ends can escape it.
func MeasureMem(fn func()) Mem {
	runtime.GC()
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	base := s[0].Value.Uint64()
	peak := base
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		s := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				metrics.Read(s)
				peak = max(peak, s[0].Value.Uint64())
			}
		}
	}()
	fn()
	close(stop)
	<-done
	metrics.Read(s)
	peak = max(peak, s[0].Value.Uint64())
	runtime.GC()
	metrics.Read(s)
	// The heap after the final collection was a heap fn's call held too,
	// so it bounds the peak from below.
	peak = max(peak, s[0].Value.Uint64())
	m := Mem{Peak: peak - base}
	if after := s[0].Value.Uint64(); after > base {
		m.Retained = after - base
	}
	return m
}

// FormatMB renders bytes as a Table 7 style megabyte string, to a
// tenth: a fit's retained result is under a megabyte at the default n.
func FormatMB(b uint64) string {
	return fmt.Sprintf("%.1f", float64(b)/(1<<20))
}
