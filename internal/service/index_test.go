package service

import (
	"math"
	"testing"

	"repro/api"
	"repro/internal/core"
	"repro/internal/densindex"
)

// residentIndex returns the density index on the named dataset's
// registry entry if the entry is at version and the index is built and
// covers dcut.
func (s *Service) residentIndex(name string, version uint64, dcut float64) (*densindex.Index, bool) {
	s.mu.RLock()
	e, ok := s.datasets[name]
	s.mu.RUnlock()
	if !ok || e.version != version {
		return nil, false
	}
	return e.residentIndex(dcut)
}

// graphsEqual compares two decision graphs point for point, bit for bit.
func graphsEqual(t *testing.T, what string, got, want *api.DecisionGraphResponse) {
	t.Helper()
	if got.N != want.N || len(got.Points) != len(want.Points) {
		t.Fatalf("%s: %d/%d points, want %d/%d", what, got.N, len(got.Points), want.N, len(want.Points))
	}
	for i := range want.Points {
		if got.Points[i] != want.Points[i] {
			t.Fatalf("%s: point %d is %+v, want %+v", what, i, got.Points[i], want.Points[i])
		}
	}
}

// labelsEqual compares full label vectors.
func labelsEqual(t *testing.T, what string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d labels, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: label[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// TestDecisionGraphThroughService checks GET /v1/decision-graph's
// backing call: the first request pays the index build, the second
// reuses it, and the (rho, delta) pairs are bit-identical to what a
// fresh Ex-DPC fit computes.
func TestDecisionGraphThroughService(t *testing.T) {
	s := New(Options{Workers: 2})
	d, p := fixture(t, 900)
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}

	if _, err := s.DecisionGraph("nope", p.DCut, 0); err == nil {
		t.Error("decision graph for unknown dataset succeeded")
	}

	g1, err := s.DecisionGraph("s2", p.DCut, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g1.IndexReused {
		t.Error("first decision graph claims to have reused an index")
	}
	if g1.N != d.Points.N || len(g1.Points) != d.Points.N {
		t.Fatalf("N=%d points=%d, want %d", g1.N, len(g1.Points), d.Points.N)
	}
	for i := 1; i < len(g1.Points); i++ {
		if g1.Points[i].Delta > g1.Points[i-1].Delta {
			t.Fatal("decision graph points not sorted by descending delta")
		}
	}

	// The graph's vectors must match a fresh fit bit-for-bit.
	alg, _ := core.AlgorithmByName("Ex-DPC")
	want, err := alg.ClusterDataset(d.Points, s.normalize("Ex-DPC", p))
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range g1.Points {
		if math.Float64bits(pt.Rho) != math.Float64bits(want.Rho[pt.ID]) {
			t.Fatalf("point %d rho %v, fit computed %v", pt.ID, pt.Rho, want.Rho[pt.ID])
		}
		if math.Float64bits(pt.Delta) != math.Float64bits(want.Delta[pt.ID]) {
			t.Fatalf("point %d delta %v, fit computed %v", pt.ID, pt.Delta, want.Delta[pt.ID])
		}
	}

	g2, err := s.DecisionGraph("s2", p.DCut, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.IndexReused {
		t.Error("second decision graph rebuilt the index")
	}
	if len(g2.Points) != 10 || g2.N != d.Points.N {
		t.Errorf("limit=10 returned %d points, N=%d", len(g2.Points), g2.N)
	}

	st := s.Stats()
	if st.IndexBuilds != 1 || st.IndexCuts != 2 {
		t.Errorf("builds=%d cuts=%d, want 1 build / 2 cuts", st.IndexBuilds, st.IndexCuts)
	}
}

// TestSweepMatchesFreshFits is the sweep acceptance: one index build
// amortized over the whole parameter grid, every setting's labels and
// centers byte-identical to a fresh fit of the same algorithm, and
// nothing leaking into the model cache.
func TestSweepMatchesFreshFits(t *testing.T) {
	s := New(Options{Workers: 2, CacheSize: 16})
	d, p := fixture(t, 900)
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}

	grid := []float64{1250, 1500, 1875, 2200, 2500, 2800, 3125, 3500}
	req := api.SweepRequest{Dataset: "s2", IncludeLabels: true}
	for _, dc := range grid {
		req.Settings = append(req.Settings, api.SweepSetting{DCut: dc, RhoMin: p.RhoMin, DeltaMin: p.DeltaMin})
	}
	resp, err := s.Sweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Algorithm != "Ex-DPC" {
		t.Errorf("default algorithm = %q, want Ex-DPC", resp.Algorithm)
	}
	if resp.IndexReused {
		t.Error("first sweep claims to have reused an index")
	}
	if len(resp.Results) != len(grid) {
		t.Fatalf("%d results for %d settings", len(resp.Results), len(grid))
	}

	// Reference fits on a separate index-free path: a second Service that
	// never built an index, so every fit is the real algorithm.
	ref := New(Options{Workers: 2, CacheSize: 16})
	if _, err := ref.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	for i, dc := range grid {
		rp := p
		rp.DCut = dc
		fr, err := ref.Fit("s2", "Ex-DPC", rp)
		if err != nil {
			t.Fatalf("reference fit dc=%g: %v", dc, err)
		}
		if fr.IndexCut {
			t.Fatalf("reference fit dc=%g came from an index", dc)
		}
		res := resp.Results[i]
		labelsEqual(t, "sweep labels", res.Labels, fr.Model.Result().Labels)
		if res.Clusters != fr.Model.NumClusters() {
			t.Errorf("dc=%g: %d clusters, fit found %d", dc, res.Clusters, fr.Model.NumClusters())
		}
		noise := 0
		for _, l := range fr.Model.Result().Labels {
			if l == core.NoCluster {
				noise++
			}
		}
		if res.Noise != noise {
			t.Errorf("dc=%g: noise %d, fit found %d", dc, res.Noise, noise)
		}
	}

	st := s.Stats()
	if st.IndexBuilds != 1 {
		t.Errorf("sweep paid %d index builds, want 1", st.IndexBuilds)
	}
	if st.IndexCuts != int64(len(grid)) {
		t.Errorf("sweep paid %d cuts for %d settings", st.IndexCuts, len(grid))
	}
	if st.ModelsCached != 0 || st.CacheMisses != 0 {
		t.Errorf("sweep polluted the model cache: %d resident, %d misses", st.ModelsCached, st.CacheMisses)
	}

	// A second sweep reuses the index: zero further builds.
	resp2, err := s.Sweep(api.SweepRequest{Dataset: "s2", Settings: req.Settings[:2]})
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.IndexReused {
		t.Error("second sweep rebuilt the index")
	}
	if len(resp2.Results[0].Labels) != 0 {
		t.Error("labels returned without include_labels")
	}
	if st := s.Stats(); st.IndexBuilds != 1 {
		t.Errorf("second sweep paid a build (total %d)", st.IndexBuilds)
	}
}

func TestSweepValidation(t *testing.T) {
	s := New(Options{Workers: 2})
	d, p := fixture(t, 300)
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	ok := []api.SweepSetting{{DCut: p.DCut, RhoMin: p.RhoMin, DeltaMin: p.DeltaMin}}

	cases := []struct {
		name string
		req  api.SweepRequest
	}{
		{"unknown dataset", api.SweepRequest{Dataset: "nope", Settings: ok}},
		{"unknown algorithm", api.SweepRequest{Dataset: "s2", Algorithm: "nope", Settings: ok}},
		{"uncovered algorithm", api.SweepRequest{Dataset: "s2", Algorithm: "Approx-DPC", Settings: ok}},
		{"no settings", api.SweepRequest{Dataset: "s2"}},
		{"non-positive dcut", api.SweepRequest{Dataset: "s2",
			Settings: []api.SweepSetting{{DCut: 0, DeltaMin: 1}}}},
		{"delta_min below dcut", api.SweepRequest{Dataset: "s2",
			Settings: []api.SweepSetting{{DCut: p.DCut, DeltaMin: p.DCut / 2}}}},
	}
	for _, tc := range cases {
		if _, err := s.Sweep(tc.req); err == nil {
			t.Errorf("%s: sweep succeeded", tc.name)
		}
	}
	if st := s.Stats(); st.IndexCuts != 0 {
		t.Errorf("rejected sweeps still paid %d cuts", st.IndexCuts)
	}
}

// TestFitReusesResidentIndex: once a decision-graph request has built
// the index, a covered algorithm's fit at any covered d_cut is served
// by a re-cut — IndexCut true, no cache-miss accounting — and the model
// is byte-identical to a fresh fit. An uncovered algorithm still runs
// for real.
func TestFitReusesResidentIndex(t *testing.T) {
	s := New(Options{Workers: 2, CacheSize: 8})
	d, p := fixture(t, 900)
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DecisionGraph("s2", p.DCut, 0); err != nil {
		t.Fatal(err)
	}

	// The build used headroom, so a slightly larger d_cut is still covered.
	pUp := p
	pUp.DCut = p.DCut * 1.2
	fr, err := s.Fit("s2", "Ex-DPC", pUp)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.IndexCut || fr.CacheHit {
		t.Errorf("fit under a resident index: IndexCut=%v CacheHit=%v", fr.IndexCut, fr.CacheHit)
	}

	ref := New(Options{Workers: 2})
	if _, err := ref.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	rf, err := ref.Fit("s2", "Ex-DPC", pUp)
	if err != nil {
		t.Fatal(err)
	}
	labelsEqual(t, "index-cut model", fr.Model.Result().Labels, rf.Model.Result().Labels)

	// The cut model entered the cache without counting as a miss.
	st := s.Stats()
	if st.CacheMisses != 0 {
		t.Errorf("index cut counted as a cache miss (%d)", st.CacheMisses)
	}
	fr2, err := s.Fit("s2", "Ex-DPC", pUp)
	if err != nil {
		t.Fatal(err)
	}
	if !fr2.CacheHit || fr2.IndexCut {
		t.Errorf("repeat fit: CacheHit=%v IndexCut=%v, want hit without a cut", fr2.CacheHit, fr2.IndexCut)
	}

	// Beyond the index ceiling the fit falls back to the real algorithm.
	pFar := p
	pFar.DCut = p.DCut * 10
	pFar.DeltaMin = pFar.DCut * 3
	frFar, err := s.Fit("s2", "Ex-DPC", pFar)
	if err != nil {
		t.Fatal(err)
	}
	if frFar.IndexCut {
		t.Error("fit beyond the index ceiling claims an index cut")
	}

	// Uncovered algorithms never take the index path.
	frApprox, err := s.Fit("s2", "Approx-DPC", p)
	if err != nil {
		t.Fatal(err)
	}
	if frApprox.IndexCut {
		t.Error("uncovered algorithm served from the index")
	}
}

// TestRestartRebuildsIndexOnDemand is the restart leg of the
// acceptance sweep: a restart warm-loads datasets and models but no
// index, so its first decision graph rebuilds the index once, and that
// graph and a covered fit re-cut from the rebuilt index are
// byte-identical to the first process's, with no fit paid.
func TestRestartRebuildsIndexOnDemand(t *testing.T) {
	dir := t.TempDir()
	d, p := fixture(t, 700)

	s1 := New(Options{Workers: 2, Store: openStore(t, dir)})
	if _, err := s1.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	g1, err := s1.DecisionGraph("s2", p.DCut, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fr, err := s1.Fit("s2", "Ex-DPC", p); err != nil || !fr.IndexCut {
		t.Fatalf("first process's fit: IndexCut=%v, err %v", fr.IndexCut, err)
	}

	s2 := New(Options{Workers: 4, Store: openStore(t, dir)})
	if st := s2.Stats(); st.DatasetsRestored != 1 || st.ModelsRestored != 1 || st.IndexBuilds != 0 {
		t.Fatalf("restart: restored %d datasets / %d models, %d index builds; want 1/1/0",
			st.DatasetsRestored, st.ModelsRestored, st.IndexBuilds)
	}
	g2, err := s2.DecisionGraph("s2", p.DCut, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g2.IndexReused {
		t.Error("decision graph after restart claims a reused index")
	}
	if len(g2.Points) != len(g1.Points) {
		t.Fatalf("graph after restart has %d points, want %d", len(g2.Points), len(g1.Points))
	}
	for i := range g1.Points {
		if g1.Points[i] != g2.Points[i] {
			t.Fatalf("graph point %d: %+v after restart, %+v before", i, g2.Points[i], g1.Points[i])
		}
	}
	// The restored model cache already holds the fit at p; go around it
	// with a different d_cut still under the rebuilt index's ceiling.
	p2 := p
	p2.DCut = p.DCut * 1.1
	fr2, err := s2.Fit("s2", "Ex-DPC", p2)
	if err != nil {
		t.Fatal(err)
	}
	if !fr2.IndexCut {
		t.Error("covered fit after restart was not re-cut from the rebuilt index")
	}
	if st := s2.Stats(); st.IndexBuilds != 1 || st.CacheMisses != 0 {
		t.Errorf("restart paid %d index builds and %d fits, want 1 and 0", st.IndexBuilds, st.CacheMisses)
	}
	fr1, err := s1.Fit("s2", "Ex-DPC", p2)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := fr1.Model.Result(), fr2.Model.Result()
	for i := range r1.Rho {
		if math.Float64bits(r1.Rho[i]) != math.Float64bits(r2.Rho[i]) ||
			math.Float64bits(r1.Delta[i]) != math.Float64bits(r2.Delta[i]) || r1.Dep[i] != r2.Dep[i] {
			t.Fatalf("point %d: rho/delta/dep %v/%v/%d after restart, %v/%v/%d before",
				i, r2.Rho[i], r2.Delta[i], r2.Dep[i], r1.Rho[i], r1.Delta[i], r1.Dep[i])
		}
	}
	labelsEqual(t, "re-cut model after restart", r2.Labels, r1.Labels)
}

// TestReuploadDropsIndex: replacing a dataset must invalidate its
// resident index — the next decision graph rebuilds against the new
// points.
func TestReuploadDropsIndex(t *testing.T) {
	s := New(Options{Workers: 2})
	d, p := fixture(t, 400)
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DecisionGraph("s2", p.DCut, 0); err != nil {
		t.Fatal(err)
	}
	d2, _ := fixture(t, 500)
	if _, err := s.PutDataset("s2", d2.Points); err != nil {
		t.Fatal(err)
	}
	g, err := s.DecisionGraph("s2", p.DCut, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.IndexReused {
		t.Error("decision graph after re-upload reused the stale index")
	}
	if g.N != d2.Points.N {
		t.Errorf("graph over %d points, want %d", g.N, d2.Points.N)
	}
	if st := s.Stats(); st.IndexBuilds != 2 {
		t.Errorf("builds=%d, want 2", st.IndexBuilds)
	}
}

// TestReconcileReloadRebuildsIndex: a rebalance that evicts a dataset
// takes its density index with the evicted registry entry. When the
// dataset is loaded back from disk, the next decision graph builds
// exactly one new index and answers what the evicted one did.
func TestReconcileReloadRebuildsIndex(t *testing.T) {
	d, p := fixture(t, 500)
	s := New(Options{Workers: 2, Store: openStore(t, t.TempDir())})
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	g1, err := s.DecisionGraph("s2", p.DCut, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Reconcile(func(string) bool { return false }); st.DatasetsEvicted != 1 {
		t.Fatalf("evict: %+v", st)
	}
	if _, err := s.DecisionGraph("s2", p.DCut, 0); err == nil {
		t.Fatal("decision graph served an evicted dataset")
	}
	if st := s.Reconcile(func(string) bool { return true }); st.DatasetsLoaded != 1 {
		t.Fatalf("reload: %+v", st)
	}
	g2, err := s.DecisionGraph("s2", p.DCut, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g2.IndexReused {
		t.Error("decision graph after the reload reused the evicted index")
	}
	graphsEqual(t, "graph after reload", g2, g1)
	if st := s.Stats(); st.IndexBuilds != 2 {
		t.Errorf("builds=%d, want 2", st.IndexBuilds)
	}
}
