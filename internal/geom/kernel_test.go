package geom

import (
	"math"
	"math/rand"
	"testing"
)

// randDataset builds an n×dim f64 dataset with coordinates spanning
// several orders of magnitude so accumulation order actually matters —
// uniform [0,1) data can mask order-dependent rounding.
func randDataset(t *testing.T, n, dim int, seed int64) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coords := make([]float64, n*dim)
	for i := range coords {
		coords[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return NewDataset(coords, dim)
}

func randDataset32(t *testing.T, n, dim int, seed int64) *Dataset {
	t.Helper()
	return randDataset(t, n, dim, seed).ToFloat32()
}

// refSqDist spells out the canonical accumulation order one element at
// a time: dimension t of the first len&^3 feeds lane t%4, the lanes
// reduce as (s0+s2)+(s1+s3), and the tail is added sequentially. With
// limit set it also exits as the partial contract says: once per chunk
// on the reduced sum, once per tail element. Rows are float64; f32 rows
// are widened exactly before they get here.
func refSqDist(a, b []float64, limit float64) (float64, bool) {
	var lane [4]float64
	n := len(a) &^ 3
	for t := 0; t < n; t++ {
		d := a[t] - b[t]
		lane[t%4] += float64(d * d)
		if t%4 == 3 {
			if s := (lane[0] + lane[2]) + (lane[1] + lane[3]); s > limit {
				return s, false
			}
		}
	}
	s := (lane[0] + lane[2]) + (lane[1] + lane[3])
	for t := n; t < len(a); t++ {
		d := a[t] - b[t]
		s += float64(d * d)
		if s > limit {
			return s, false
		}
	}
	return s, true
}

// TestKernelMatchesReferenceOrder locks every exported kernel to the
// canonical order bit for bit, for every dimension up to 67 (many full
// chunks plus each tail length), on f64 rows, f32 rows, and a float64
// query against f32 rows. A one-row run must match the reference's
// (sum, ok) at limits below, at and above the full sum.
func TestKernelMatchesReferenceOrder(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	out := make([]float64, 1)
	run := func(ds *Dataset, q Point, j int32) func(float64) (float64, bool) {
		return func(l float64) (float64, bool) {
			SqDistToRun(ds, q, j, j+1, l, out)
			return out[0], !(out[0] > l)
		}
	}
	for dim := 1; dim <= 67; dim++ {
		ds := randDataset(t, 8, dim, int64(1000+dim))
		ds32 := randDataset32(t, 8, dim, int64(2000+dim))
		for i := int32(0); i < 8; i++ {
			for j := int32(0); j < 8; j++ {
				q := ds.At(int(i)) // a float64 query, not f32-representable
				cases := []struct {
					name string
					a, b []float64
					full func() float64
					part func(float64) (float64, bool)
				}{
					{"f64", ds.At(int(i)), ds.At(int(j)),
						func() float64 { return SqDistIdx(ds, i, j) },
						run(ds, ds.At(int(i)), j)},
					{"f32", ds32.At(int(i)), ds32.At(int(j)),
						func() float64 { return SqDistIdx(ds32, i, j) },
						run(ds32, ds32.At(int(i)), j)},
					{"f64 query", q, ds.At(int(j)),
						func() float64 { return SqDistToIdx(ds, q, j) },
						run(ds, q, j)},
					{"mixed", q, ds32.At(int(j)),
						func() float64 { return SqDistToIdx(ds32, q, j) },
						run(ds32, q, j)},
				}
				for _, c := range cases {
					want, _ := refSqDist(c.a, c.b, math.Inf(1))
					if got := c.full(); !same(got, want) {
						t.Fatalf("dim %d %s (%d,%d): kernel %v != reference %v", dim, c.name, i, j, got, want)
					}
					for _, limit := range []float64{0, want * 0.5, want, want * 2} {
						got, ok := c.part(limit)
						ref, refOK := refSqDist(c.a, c.b, limit)
						if ok != refOK || !same(got, ref) {
							t.Fatalf("dim %d %s (%d,%d) limit %v: one-row run (%v,%v) != reference (%v,%v)",
								dim, c.name, i, j, limit, got, ok, ref, refOK)
						}
					}
				}
				// The f32 instantiation must agree with widening both rows
				// first and running the f64 one: float32→float64 is exact.
				if got32, wide := SqDistIdx(ds32, i, j), SqDist(ds32.At(int(i)), ds32.At(int(j))); !same(got32, wide) {
					t.Fatalf("dim %d f32-vs-widened (%d,%d): %v != %v", dim, i, j, got32, wide)
				}
			}
		}
	}
}

// checkpoints returns the running sums refSqDist compares against its
// limit, in order: one per chunk, then one per tail element.
func checkpoints(a, b []float64) []float64 {
	var lane [4]float64
	var out []float64
	n := len(a) &^ 3
	for t := 0; t < n; t++ {
		d := a[t] - b[t]
		lane[t%4] += float64(d * d)
		if t%4 == 3 {
			out = append(out, (lane[0]+lane[2])+(lane[1]+lane[3]))
		}
	}
	s := (lane[0] + lane[2]) + (lane[1] + lane[3])
	for t := n; t < len(a); t++ {
		d := a[t] - b[t]
		s += float64(d * d)
		out = append(out, s)
	}
	return out
}

// TestKernelRunMatchesRows locks the run kernel to the per-row
// reference bit for bit: every run of a 20-row dataset, dims 1..9, f64
// and f32 rows, against a dataset row and an off-row query. Limits are
// 0, +Inf, exactly a row's full sum, and just below each of a row's
// checkpoints — which forces the exit after the first chunk, after a
// later chunk, or in the tail, whichever that checkpoint is.
func TestKernelRunMatchesRows(t *testing.T) {
	const n = 20
	for dim := 1; dim <= 9; dim++ {
		ds64 := randDataset(t, n, dim, int64(4000+dim))
		for _, ds := range []*Dataset{ds64, randDataset32(t, n, dim, int64(5000+dim))} {
			queries := []Point{ds.At(3), randDataset(t, 1, dim, int64(6000+dim)).At(0)}
			for qi, q := range queries {
				limits := []float64{0, math.Inf(1)}
				for k := 0; k < n; k++ {
					row := ds.At(k)
					full, _ := refSqDist(q, row, math.Inf(1))
					limits = append(limits, full)
					for _, c := range checkpoints(q, row) {
						limits = append(limits, math.Nextafter(c, math.Inf(-1)))
					}
				}
				out := make([]float64, n)
				for _, limit := range limits {
					for lo := int32(0); lo < n; lo++ {
						for hi := lo + 1; hi <= n; hi += 1 + hi%3 {
							SqDistToRun(ds, q, lo, hi, limit, out)
							for k := lo; k < hi; k++ {
								want, wantOK := refSqDist(q, ds.At(int(k)), limit)
								got := out[k-lo]
								if math.Float64bits(got) != math.Float64bits(want) || !(got > limit) != wantOK {
									t.Fatalf("%s dim %d query %d run [%d,%d) row %d limit %v: %v, reference (%v, %v)",
										ds.Precision(), dim, qi, lo, hi, k, limit, got, want, wantOK)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestKernelPartialConsistency checks the early-exit contract against
// the full sum on both precisions, dims 1..19: over a run of every row,
// a row that completed holds SqDistIdx's sum bit for bit, and a row
// abandoned early is one whose full sum exceeds the limit.
func TestKernelPartialConsistency(t *testing.T) {
	out := make([]float64, 8)
	for dim := 1; dim <= 19; dim++ {
		ds64 := randDataset(t, 8, dim, int64(3000+dim))
		for _, ds := range []*Dataset{ds64, ds64.ToFloat32()} {
			for i := int32(0); i < 8; i++ {
				q := ds.At(int(i))
				for j := int32(0); j < 8; j++ {
					full := SqDistIdx(ds, i, j)
					for _, limit := range []float64{0, full * 0.5, full, full * 2, math.Inf(1)} {
						SqDistToRun(ds, q, 0, 8, limit, out)
						if s := out[j]; !(s > limit) {
							if math.Float64bits(s) != math.Float64bits(full) {
								t.Fatalf("%s dim %d (%d,%d): completed row %v != full sum %v", ds.Precision(), dim, i, j, s, full)
							}
						} else if full <= limit {
							t.Fatalf("%s dim %d (%d,%d): abandoned at limit %v though full sum %v fits", ds.Precision(), dim, i, j, limit, full)
						}
					}
				}
			}
		}
	}
}

// TestKernelPointForms checks SqDist/SqDistPartial (the Point forms)
// agree with the Idx kernels, and DistIdx is the square root.
func TestKernelPointForms(t *testing.T) {
	ds := randDataset(t, 6, 23, 7)
	for i := int32(0); i < 6; i++ {
		for j := int32(0); j < 6; j++ {
			idx := SqDistIdx(ds, i, j)
			pt := SqDist(ds.At(int(i)), ds.At(int(j)))
			if math.Float64bits(idx) != math.Float64bits(pt) {
				t.Fatalf("(%d,%d): SqDistIdx %v != SqDist %v", i, j, idx, pt)
			}
			if d := DistIdx(ds, i, j); math.Float64bits(d) != math.Float64bits(math.Sqrt(idx)) {
				t.Fatalf("(%d,%d): DistIdx %v != sqrt %v", i, j, d, math.Sqrt(idx))
			}
			to := SqDistToIdx(ds, ds.At(int(i)), j)
			if math.Float64bits(idx) != math.Float64bits(to) {
				t.Fatalf("(%d,%d): SqDistToIdx %v != SqDistIdx %v", i, j, to, idx)
			}
		}
	}
}

func TestDatasetPrecision(t *testing.T) {
	ds := randDataset(t, 5, 3, 99)
	if ds.Precision() != "f64" || ds.Float32() {
		t.Fatalf("f64 dataset reports %q/%v", ds.Precision(), ds.Float32())
	}
	ds32 := ds.ToFloat32()
	if ds32.Precision() != "f32" || !ds32.Float32() {
		t.Fatalf("f32 dataset reports %q/%v", ds32.Precision(), ds32.Float32())
	}
	if ds32.ToFloat32() != ds32 {
		t.Fatal("ToFloat32 of an f32 dataset should return the receiver")
	}
	if err := ds32.Validate(); err != nil {
		t.Fatalf("f32 Validate: %v", err)
	}
	for i := 0; i < ds.N; i++ {
		for j := 0; j < ds.Dim; j++ {
			if float64(float32(ds.Coord(int32(i), j))) != ds32.Coord(int32(i), j) {
				t.Fatalf("round-trip coord (%d,%d) mismatch", i, j)
			}
		}
	}
	if ds.Fingerprint() == ds32.Fingerprint() {
		t.Fatal("f32 and f64 datasets should not share a fingerprint")
	}
	// AtBuf must reuse the buffer on f32 and alias the backing on f64.
	buf := make(Point, ds32.Dim)
	row := ds32.AtBuf(3, buf)
	if &row[0] != &buf[0] {
		t.Fatal("AtBuf on f32 did not use the caller's buffer")
	}
	row64 := ds.AtBuf(3, buf)
	if &row64[0] != &ds.Coords[3*ds.Dim] {
		t.Fatal("AtBuf on f64 did not return the zero-copy view")
	}
}
