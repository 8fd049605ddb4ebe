package geom

import (
	"fmt"
	"math"
)

// Distance kernels.
//
// Every squared-distance evaluation in this repository — fresh fits,
// kd-tree and R-tree walks, density-index builds and re-cuts, assigns —
// flows through the kernels in this file, and they all share ONE
// accumulation order so results are bit-identical no matter which path
// computed them:
//
//	four float64 accumulator lanes over dimension chunks of 4
//	(lane k sums (a[4c+k]-b[4c+k])^2 in chunk order), reduced as
//	(s0+s2)+(s1+s3), then the <4 trailing dimensions added
//	sequentially to the reduced sum.
//
// There are two call forms, one generic body each. The full sum
// (SqDist, SqDistIdx, SqDistToIdx; body sqdist) answers one pair. The
// run (SqDistToRun; body sqdistRun) fills a buffer with the distances
// from one query to a run of consecutive rows, abandoning each row
// early: every kd-tree leaf is one run call, and so is each block of
// the quadratic baselines' scans over consecutive rows. Candidates that
// are not consecutive rows take the full sum: at the paper's 2–8
// dimensions a one-row early exit skips at most one chunk, and it
// measured slower than the full sum.
//
// Float32 elements are widened to float64 before subtracting; the
// widening is exact, so the f32 and mixed instantiations return the same
// bits as widening the whole row first and running the f64 one. Each
// square is explicitly rounded (float64(d*d)), which forbids the
// compiler from fusing it into the add — arm64 otherwise emits FMADD —
// so the order, and with it every label, is the same on every platform.
//
// The run form accumulates in the same order and additionally compares
// the running reduced sum against a limit once per chunk and once per
// tail element, abandoning the row as soon as it exceeds the limit; the
// comparison after the row's last element is skipped, since abandoning
// there leaves the same sum as finishing. Partial sums of non-negative
// terms are monotone under IEEE rounding, so an exit can only fire when
// the completed sum would also exceed the limit: callers that accept
// strictly-closer candidates (`v < limit`) decide identically to the
// full sum, and a completed row holds the canonical sum bit-for-bit.

// SqDist returns the squared Euclidean distance between a and b in the
// canonical accumulation order above. It is the inner loop of every
// algorithm here, so it avoids the sqrt.
func SqDist(a, b Point) float64 {
	return sqdist(a, b)
}

// SqDistPartial is a one-row run: the squared distance, abandoned as
// soon as it exceeds limit, returning (sum, false); when the full
// distance is at most limit it returns the canonical full sum and true.
// No non-test code in this module calls it: it exists only because the
// benchmark ladder's geom.sqdist_partial_ns rung measures it.
func SqDistPartial(a, b Point, limit float64) (float64, bool) {
	s := sqdistRun(a, b[:len(a)], limit, nil)
	return s, !(s > limit)
}

// SqDistIdx returns the squared Euclidean distance between points i and
// j of the dataset — the flat-index twin of SqDist, and the innermost
// kernel of every algorithm here. On float32 datasets it reads the f32
// rows directly (no widened-row allocation).
func SqDistIdx(ds *Dataset, i, j int32) float64 {
	if ds.Coords32 != nil {
		return sqdist(ds.row32(i), ds.row32(j))
	}
	return sqdist(ds.row64(i), ds.row64(j))
}

// DistIdx returns the Euclidean distance between points i and j.
func DistIdx(ds *Dataset, i, j int32) float64 {
	return math.Sqrt(SqDistIdx(ds, i, j))
}

// SqDistToIdx returns the squared distance between an external query
// point q (always float64 — wire coordinates and tree queries are
// float64 rows) and dataset point i. On float32 datasets the row is
// widened element-wise inside the kernel, so per-node tree evaluations
// never allocate a widened row.
func SqDistToIdx(ds *Dataset, q Point, i int32) float64 {
	if ds.Coords32 != nil {
		return sqdist(q, ds.row32(i))
	}
	return sqdist(q, ds.row64(i))
}

// SqDistToRun is the early-exit kernel over the consecutive dataset
// rows [lo, hi): out[k-lo] receives the squared distance between q and
// row k, or — when the running sum exceeds limit before the row is
// done — that partial sum, which is then > limit. A completed row holds
// the canonical sum bit-for-bit, so `out[k-lo] < limit` is exactly
// `SqDistToIdx(ds, q, k) < limit`. out must have room for hi-lo values.
// It is the leaf scan of the kd-tree and the block scan of the
// quadratic baselines: one call per leaf or block instead of one per
// row.
func SqDistToRun(ds *Dataset, q Point, lo, hi int32, limit float64, out []float64) {
	// The run body takes its row length from q, so a query of another
	// dimension would misalign every row after the first, not fail.
	if len(q) != ds.Dim {
		panic(fmt.Sprintf("geom: %d-dimensional query against %d-dimensional rows", len(q), ds.Dim))
	}
	a, b := int(lo)*ds.Dim, int(hi)*ds.Dim
	out = out[:hi-lo]
	if ds.Coords32 != nil {
		sqdistRun(q, ds.Coords32[a:b], limit, out)
		return
	}
	sqdistRun(q, ds.Coords[a:b], limit, out)
}

// SIMDEnabled reports whether an assembly kernel is dispatched. There is
// none: the generic Go bodies below are the only implementation, so it
// is always false. It remains for callers that record the environment a
// measurement ran in.
func SIMDEnabled() bool { return false }

// float is the element type of a stored or query row.
type float interface{ float32 | float64 }

// sqdist is the canonical full-sum body: four lanes over chunks of 4,
// reduced (s0+s2)+(s1+s3), then a sequential tail.
func sqdist[A, B float](a []A, b []B) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	n := len(a) &^ 3
	for t := 0; t < n; t += 4 {
		d0 := float64(a[t]) - float64(b[t])
		d1 := float64(a[t+1]) - float64(b[t+1])
		d2 := float64(a[t+2]) - float64(b[t+2])
		d3 := float64(a[t+3]) - float64(b[t+3])
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
	}
	s := (s0 + s2) + (s1 + s3)
	for t := n; t < len(a); t++ {
		d := float64(a[t]) - float64(b[t])
		s += float64(d * d)
	}
	return s
}

// sqdistRun is the early-exit body: for each row of len(q) elements
// laid end to end in rows, sqdist's order with a limit check after every
// chunk and every tail element. out[r], when out has room for it,
// receives row r's sum or the partial sum (> limit) at which it was
// abandoned, and the last row's is returned, so a one-row call passes
// no buffer. The check after a row's last element is skipped, so the
// last tail element is peeled out of the tail loop: that check would
// save no work, and in a low-dimensional leaf scan an unpredictable
// branch costs more than the arithmetic.
func sqdistRun[A, B float](q []A, rows []B, limit float64, out []float64) (s float64) {
	dim := len(q)
	n := dim &^ 3
row:
	for r := 0; len(rows) > 0; r++ {
		b := rows[:dim]
		rows = rows[dim:]
		var s0, s1, s2, s3 float64
		for t := 0; t < n; t += 4 {
			d0 := float64(q[t]) - float64(b[t])
			d1 := float64(q[t+1]) - float64(b[t+1])
			d2 := float64(q[t+2]) - float64(b[t+2])
			d3 := float64(q[t+3]) - float64(b[t+3])
			s0 += float64(d0 * d0)
			s1 += float64(d1 * d1)
			s2 += float64(d2 * d2)
			s3 += float64(d3 * d3)
			if s = (s0 + s2) + (s1 + s3); t+4 < dim && s > limit {
				if r < len(out) {
					out[r] = s
				}
				continue row
			}
		}
		s = (s0 + s2) + (s1 + s3)
		if t := n; t < dim {
			for ; t < dim-1; t++ {
				d := float64(q[t]) - float64(b[t])
				s += float64(d * d)
				if s > limit {
					break
				}
			}
			if t == dim-1 {
				d := float64(q[t]) - float64(b[t])
				s += float64(d * d)
			}
		}
		if r < len(out) {
			out[r] = s
		}
	}
	return s
}
