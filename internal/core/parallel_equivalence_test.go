package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// equivAlgs is the grid the scheduling-equivalence gate runs over: every
// evaluated algorithm plus the dropped competitors, exactly the set
// TestFlatRowsEquivalence covers.
func equivAlgs() []Algorithm {
	return []Algorithm{
		Scan{}, RtreeScan{}, LSHDDP{}, CFSFDPA{},
		ExDPC{}, ApproxDPC{}, SApproxDPC{},
		FastDPeak{}, DPCG{}, CFSFDPDE{},
	}
}

// TestParallelSerialEquivalence gates the parallel fit phases: one
// worker against several must be byte-identical for every algorithm —
// the parallel density and dependency passes use deterministic
// partitioning and tie-breaking, so the schedule never leaks into the
// result. Worker counts that do not divide n exercise the remainder
// blocks.
func TestParallelSerialEquivalence(t *testing.T) {
	for _, d := range []int{2, 4} {
		rng := rand.New(rand.NewSource(int64(400 + d)))
		rows := equivBlobs(rng, 901, d)
		ds := geom.MustFromRows(rows)
		base := Params{DCut: 12, RhoMin: 3, DeltaMin: 40, Epsilon: 0.8, Seed: 1}
		for _, alg := range equivAlgs() {
			serialP := base
			serialP.Workers = 1
			serial, err := alg.ClusterDataset(ds, serialP)
			if err != nil {
				t.Fatalf("%s serial (d=%d): %v", alg.Name(), d, err)
			}
			for _, workers := range []int{3, 7} {
				parP := base
				parP.Workers = workers
				par, err := alg.ClusterDataset(ds, parP)
				if err != nil {
					t.Fatalf("%s workers=%d (d=%d): %v", alg.Name(), workers, d, err)
				}
				compareResults(t, alg.Name()+" parallel-vs-serial", d, serial, par)
			}
		}
	}
}

// TestFloat32Tolerance bounds what narrowing a dataset to float32 may
// change. The f32 kernels widen each stored element back to float64
// exactly, so the only way labels can move is a pair whose true distance
// sits so close to d_cut that the storage rounding pushes it across —
// a dc-boundary tie. The test counts those crossing pairs directly; with
// none, results must be byte-identical, and with crossings the label
// disagreement must stay proportionate to them instead of cascading.
func TestFloat32Tolerance(t *testing.T) {
	for _, d := range []int{2, 4} {
		rng := rand.New(rand.NewSource(int64(500 + d)))
		rows := equivBlobs(rng, 800, d)
		ds := geom.MustFromRows(rows)
		ds32 := ds.ToFloat32()
		p := Params{DCut: 12, RhoMin: 3, DeltaMin: 40, Workers: 4, Seed: 1}

		// Count pairs whose in-range verdict flips under f32 storage.
		dc2 := p.DCut * p.DCut
		crossings := 0
		for i := int32(0); i < int32(ds.N); i++ {
			for j := i + 1; j < int32(ds.N); j++ {
				in64 := geom.SqDistIdx(ds, i, j) <= dc2
				in32 := geom.SqDistIdx(ds32, i, j) <= dc2
				if in64 != in32 {
					crossings++
				}
			}
		}

		for _, alg := range []Algorithm{Scan{}, ExDPC{}} {
			r64, err := alg.ClusterDataset(ds, p)
			if err != nil {
				t.Fatalf("%s f64 (d=%d): %v", alg.Name(), d, err)
			}
			r32, err := alg.ClusterDataset(ds32, p)
			if err != nil {
				t.Fatalf("%s f32 (d=%d): %v", alg.Name(), d, err)
			}
			disagree := 0
			for i := range r64.Labels {
				if r64.Labels[i] != r32.Labels[i] {
					disagree++
				}
			}
			if crossings == 0 && disagree != 0 {
				t.Fatalf("%s (d=%d): %d label disagreements with zero dc-boundary crossings",
					alg.Name(), d, disagree)
			}
			// A crossing flips at most one point's density membership; allow
			// each to carry its dependency subtree but never a blowup.
			if limit := 25 * crossings; disagree > limit {
				t.Fatalf("%s (d=%d): %d label disagreements exceed the %d budget of %d boundary crossings",
					alg.Name(), d, disagree, limit, crossings)
			}
		}
	}
}
