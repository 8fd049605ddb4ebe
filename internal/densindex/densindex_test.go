package densindex

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
)

// dcGrid is the re-cut sweep used throughout: 9 cut distances spanning
// a 4x range around the S2 default (2500), all below the build ceiling.
var dcGrid = []float64{1200, 1600, 2000, 2400, 2500, 2800, 3200, 4000, 4800}

const dcCeiling = 4800

// sameBits requires exact float64 bit equality — the index's contract
// is byte-identity with a fresh fit, not approximate agreement.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (bits %x), want %v (bits %x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func sameInt32(t *testing.T, what string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// TestCutMatchesFreshFit is the core byte-identity guarantee: for every
// covered algorithm and every d_cut on the grid, a re-cut of one index
// built at the ceiling reproduces a fresh fit exactly — densities,
// dependent distances, dependent points, labels, and centers.
func TestCutMatchesFreshFit(t *testing.T) {
	d := data.SSet(2, 1500, 7)
	idx, err := Build(d.Points, dcCeiling, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range CoveredAlgorithms() {
		alg, ok := core.AlgorithmByName(name)
		if !ok {
			t.Fatalf("covered algorithm %q is unknown to core", name)
		}
		for _, dc := range dcGrid {
			t.Run(fmt.Sprintf("%s/dc=%g", name, dc), func(t *testing.T) {
				p := core.Params{DCut: dc, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin, Workers: 4}
				if p.DeltaMin <= p.DCut {
					p.DeltaMin = p.DCut * 3
				}
				want, err := alg.ClusterDataset(d.Points, p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := idx.Cut(p)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, "rho", got.Rho, want.Rho)
				sameBits(t, "delta", got.Delta, want.Delta)
				sameInt32(t, "dep", got.Dep, want.Dep)
				sameInt32(t, "labels", got.Labels, want.Labels)
				sameInt32(t, "centers", got.Centers, want.Centers)
			})
		}
	}
}

// TestCutSerialMatchesParallel pins the worker-count independence the
// service relies on: the same cut with 1 worker and many workers is
// bit-identical (the kernels only partition iteration, never change
// float op order within a point).
func TestCutSerialMatchesParallel(t *testing.T) {
	d := data.SSet(2, 800, 3)
	idx, err := Build(d.Points, 3000, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	p1 := core.Params{DCut: 2500, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin, Workers: 1}
	p8 := p1
	p8.Workers = 8
	a, err := idx.Cut(p1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := idx.Cut(p8)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "rho", a.Rho, b.Rho)
	sameBits(t, "delta", a.Delta, b.Delta)
	sameInt32(t, "labels", a.Labels, b.Labels)
}

func TestCutRejectsBeyondCeiling(t *testing.T) {
	d := data.SSet(1, 300, 1)
	idx, err := Build(d.Points, 2000, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, dc := range []float64{2000.5, math.Inf(1), math.NaN(), -1, 0} {
		p := core.Params{DCut: dc, DeltaMin: 1e9}
		if _, err := idx.Cut(p); err == nil {
			t.Errorf("Cut accepted dcut %v beyond ceiling %v", dc, idx.DCutMax())
		}
	}
	// At exactly the ceiling the cut must work.
	if _, err := idx.Cut(core.Params{DCut: 2000, DeltaMin: 1e9}); err != nil {
		t.Errorf("Cut at the exact ceiling failed: %v", err)
	}
}

// TestBuildRejectsCeiling: a ceiling that is not positive and finite,
// or whose square underflows to 0, is an error, not a panic.
func TestBuildRejectsCeiling(t *testing.T) {
	d := data.SSet(1, 50, 1)
	for _, dc := range []float64{0, -1, math.NaN(), math.Inf(1), 1e-200} {
		if _, err := Build(d.Points, dc, 2, 0); err == nil {
			t.Errorf("Build accepted dcut ceiling %v", dc)
		}
	}
}

func TestBuildEdgeBudget(t *testing.T) {
	d := data.SSet(4, 400, 2)
	if _, err := Build(d.Points, 1e5, 2, 50); err == nil {
		t.Fatal("Build under an absurdly small edge budget succeeded")
	} else if !errors.Is(err, ErrTooDense) {
		t.Fatalf("budget overflow error %v does not unwrap to ErrTooDense", err)
	}
}

// TestDecisionGolden pins the decision-graph vectors on a fixed seeded
// dataset: Decision must reproduce a fresh fit's rho/delta bit-for-bit,
// and thresholding them at the dataset defaults must recover exactly
// the centers the full clustering picks.
func TestDecisionGolden(t *testing.T) {
	d := data.SSet(2, 1200, 11)
	idx, err := Build(d.Points, 3000, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rho, delta, err := idx.Decision(d.DCut, 4)
	if err != nil {
		t.Fatal(err)
	}
	alg, ok := core.AlgorithmByName("Ex-DPC")
	if !ok {
		t.Fatal("Ex-DPC not registered")
	}
	p := core.Params{DCut: d.DCut, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin, Workers: 4}
	want, err := alg.ClusterDataset(d.Points, p)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "rho", rho, want.Rho)
	sameBits(t, "delta", delta, want.Delta)

	var centers []int32
	for i := range rho {
		if rho[i] > p.RhoMin && delta[i] > p.DeltaMin {
			centers = append(centers, int32(i))
		}
	}
	sameInt32(t, "thresholded centers", centers, want.Centers)
	if len(centers) == 0 {
		t.Fatal("golden dataset yields no centers at its default thresholds")
	}
}

func TestCovers(t *testing.T) {
	for _, name := range CoveredAlgorithms() {
		if !Covers(name) {
			t.Errorf("Covers(%q) = false for a listed algorithm", name)
		}
		if _, ok := core.AlgorithmByName(name); !ok {
			t.Errorf("covered algorithm %q does not resolve in core", name)
		}
	}
	for _, name := range []string{"Approx-DPC", "S-Approx-DPC", "LSH-DDP", "CFSFDP-DE", "nope"} {
		if Covers(name) {
			t.Errorf("Covers(%q) = true for an uncovered algorithm", name)
		}
	}
}

// localMaximaShare is the fraction of points with no stored neighbor of
// higher density under rho — the points deltaDep answers with the
// kd-tree walk instead of their own list.
func localMaximaShare(x *Index, rho []float64) float64 {
	order := core.DensityOrder(rho, 1)
	rank := make([]int32, len(order))
	for r, i := range order {
		rank[i] = int32(r)
	}
	maxima := 0
	for _, i := range order[1:] {
		denser := false
		for e := x.start[i]; e < x.start[i+1] && !denser; e++ {
			denser = rank[x.ids[e]] < rank[i]
		}
		if !denser {
			maxima++
		}
	}
	return float64(maxima) / float64(len(order))
}

// TestCutNoisyLocalMaxima is the byte-identity guarantee where the
// kd-tree walk carries real weight: the noisy PAMAP2 stand-in with the
// ceiling at d_cut itself (how the service indexes a plain fit), in
// both storage widths. At least 10% of the points must take the walk,
// so the fixture cannot go trivial. The walk runs on the tree Build
// made, so no cut reports a build of its own.
func TestCutNoisyLocalMaxima(t *testing.T) {
	d := data.PAMAP2Like(4000, 5)
	p := core.Params{DCut: d.DCut, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin, Workers: 4}
	for _, ds := range []*geom.Dataset{d.Points, d.Points.ToFloat32()} {
		t.Run(ds.Precision(), func(t *testing.T) {
			idx, err := Build(ds, d.DCut, 4, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := mustCut(t, idx, p)
			if got.Timing.Build != 0 {
				t.Errorf("cut reports Timing.Build = %v, want 0", got.Timing.Build)
			}
			share := localMaximaShare(idx, got.Rho)
			if share < 0.10 {
				t.Fatalf("only %.1f%% of points are local maxima at the ceiling; fixture too easy", 100*share)
			}
			t.Logf("%.1f%% of points take the kd-tree walk", 100*share)
			for _, name := range []string{"Scan", "Ex-DPC"} {
				alg, _ := core.AlgorithmByName(name)
				want, err := alg.ClusterDataset(ds, p)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, name+" rho", got.Rho, want.Rho)
				sameBits(t, name+" delta", got.Delta, want.Delta)
				sameInt32(t, name+" dep", got.Dep, want.Dep)
				sameInt32(t, name+" labels", got.Labels, want.Labels)
				sameInt32(t, name+" centers", got.Centers, want.Centers)
			}
		})
	}
}

func mustCut(t *testing.T, x *Index, p core.Params) *core.Result {
	t.Helper()
	res, err := x.Cut(p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestConcurrentCutsShareOneTree: cuts of one index from several
// goroutines at once walk the index's own tree, build none of their
// own, and agree bit-for-bit with a fresh Ex-DPC fit.
func TestConcurrentCutsShareOneTree(t *testing.T) {
	d := data.PAMAP2Like(1500, 9)
	p := core.Params{DCut: d.DCut, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin, Workers: 2}
	idx, err := Build(d.Points, d.DCut, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	alg, _ := core.AlgorithmByName("Ex-DPC")
	want, err := alg.ClusterDataset(d.Points, p)
	if err != nil {
		t.Fatal(err)
	}
	tree := idx.Tree()
	const cuts = 4
	results := make([]*core.Result, cuts)
	errs := make([]error, cuts)
	var wg sync.WaitGroup
	for g := 0; g < cuts; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = idx.Cut(p)
		}(g)
	}
	wg.Wait()
	for g, res := range results {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if res.Timing.Build != 0 {
			t.Errorf("cut %d reports a tree build (%v)", g, res.Timing.Build)
		}
		sameBits(t, "delta", res.Delta, want.Delta)
		sameInt32(t, "dep", res.Dep, want.Dep)
		sameInt32(t, "labels", res.Labels, want.Labels)
	}
	if idx.Tree() != tree || tree.Len() != d.Points.N {
		t.Error("Tree() is not one whole-dataset tree")
	}
}
