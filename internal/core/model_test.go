package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/kdtree"
)

func TestRegisteredCoversAllTen(t *testing.T) {
	algs := Registered()
	if len(algs) != 10 {
		t.Fatalf("Registered() has %d algorithms, want 10", len(algs))
	}
	seen := map[string]bool{}
	for _, a := range algs {
		if seen[a.Name()] {
			t.Errorf("duplicate algorithm name %q", a.Name())
		}
		seen[a.Name()] = true
		got, ok := AlgorithmByName(a.Name())
		if !ok || got.Name() != a.Name() {
			t.Errorf("AlgorithmByName(%q) failed", a.Name())
		}
	}
	if _, ok := AlgorithmByName("nope"); ok {
		t.Error("AlgorithmByName accepted unknown name")
	}
}

// TestModelAssignReproducesTrainingLabels is the fit-once/assign-many
// equivalence guarantee: for every registered algorithm, assigning the
// training points back through the fitted model's kd-tree reproduces the
// fitted Labels exactly (each training point's nearest neighbor is
// itself, at distance zero).
func TestModelAssignReproducesTrainingLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows, _ := gaussianMix(rng, 5, 120, 30, 2, 200, 3)
	ds := geom.MustFromRows(rows)
	p := defaultParams()
	for _, alg := range Registered() {
		m, err := Fit(alg, ds, p)
		if err != nil {
			t.Fatalf("%s: fit: %v", alg.Name(), err)
		}
		if m.Algorithm() != alg.Name() || m.N() != ds.N || m.Dim() != ds.Dim {
			t.Errorf("%s: model metadata wrong: %+v", alg.Name(), m.Stats())
		}
		labels, err := m.AssignAll(rows, 3)
		if err != nil {
			t.Fatalf("%s: assign: %v", alg.Name(), err)
		}
		want := m.Result().Labels
		for i := range labels {
			if labels[i] != want[i] {
				t.Fatalf("%s: Assign(training point %d) = %d, fitted label %d",
					alg.Name(), i, labels[i], want[i])
			}
		}
	}
}

func TestModelAssignDimensionChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rows, _ := gaussianMix(rng, 3, 80, 10, 2, 200, 3)
	m, err := Fit(ApproxDPC{}, geom.MustFromRows(rows), defaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Assign([]float64{1, 2, 3}); err == nil {
		t.Error("Assign accepted wrong dimension")
	}
	if _, err := m.AssignAll([][]float64{{1, 2}, {1, 2, 3}}, 2); err == nil {
		t.Error("AssignAll accepted mixed dimensions")
	}
	if out, err := m.AssignAll(nil, 2); err != nil || out == nil || len(out) != 0 {
		// Non-nil so the serving layer marshals [] rather than null.
		t.Errorf("empty batch: got %v, %v", out, err)
	}
}

func TestModelStats(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows, _ := gaussianMix(rng, 4, 100, 40, 2, 200, 3)
	m, err := Fit(ExDPC{}, geom.MustFromRows(rows), defaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Algorithm != "Ex-DPC" || s.N != len(rows) || s.Dim != 2 {
		t.Errorf("stats metadata wrong: %+v", s)
	}
	if s.Clusters != m.NumClusters() || s.Clusters == 0 {
		t.Errorf("stats clusters = %d, model says %d", s.Clusters, m.NumClusters())
	}
	if s.Noise == 0 {
		t.Error("expected some noise points in the mixture fixture")
	}
	if s.FitSecs <= 0 {
		t.Error("fit time not recorded")
	}
}

func TestCanonicalParams(t *testing.T) {
	p := Params{DCut: 8, RhoMin: 5, DeltaMin: 30, Workers: 4, Epsilon: 0.4, Seed: 9}
	// Deterministic algorithm: Seed and Epsilon are not identity.
	c := CanonicalParams("Ex-DPC", p)
	if c.Seed != 0 || c.Epsilon != 0 {
		t.Errorf("Ex-DPC canonical = %+v, want Seed/Epsilon zeroed", c)
	}
	if c.DCut != p.DCut || c.RhoMin != p.RhoMin || c.DeltaMin != p.DeltaMin || c.Workers != p.Workers {
		t.Errorf("Ex-DPC canonical clobbered real params: %+v", c)
	}
	// Randomized substrate: Seed survives.
	for _, name := range []string{"LSH-DDP", "CFSFDP-A", "CFSFDP-DE"} {
		if c := CanonicalParams(name, p); c.Seed != 9 {
			t.Errorf("%s canonical dropped Seed", name)
		}
	}
	// Epsilon matters only to S-Approx-DPC, where <= 0 means 1.
	if c := CanonicalParams("S-Approx-DPC", p); c.Epsilon != 0.4 {
		t.Errorf("S-Approx-DPC canonical dropped Epsilon: %+v", c)
	}
	pz := p
	pz.Epsilon = 0
	if c := CanonicalParams("S-Approx-DPC", pz); c.Epsilon != 1 {
		t.Errorf("S-Approx-DPC canonical of defaulted Epsilon = %v, want 1", c.Epsilon)
	}
	// Canonical params must fit to the same result as the originals.
	rng := rand.New(rand.NewSource(12))
	rows, _ := gaussianMix(rng, 3, 80, 10, 2, 200, 3)
	ds := geom.MustFromRows(rows)
	for _, alg := range []Algorithm{ExDPC{}, ApproxDPC{}} {
		a, err := alg.ClusterDataset(ds, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := alg.ClusterDataset(ds, CanonicalParams(alg.Name(), p))
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Labels {
			if a.Labels[i] != b.Labels[i] {
				t.Fatalf("%s: canonical params changed label %d", alg.Name(), i)
			}
		}
	}
}

// TestModelConcurrentFitAssignRace is the -race satellite: every
// registered algorithm fits with Workers > 1 (exercising
// partition.Dynamic everywhere and the LPT cost-greedy path in
// Approx-DPC) while earlier models serve concurrent Assign traffic.
func TestModelConcurrentFitAssignRace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows, _ := gaussianMix(rng, 4, 90, 20, 2, 200, 3)
	ds := geom.MustFromRows(rows)
	p := defaultParams() // Workers: 4 > 1

	queries := make([][]float64, 200)
	for i := range queries {
		queries[i] = []float64{rng.Float64() * 200, rng.Float64() * 200}
	}

	var wg sync.WaitGroup
	for _, alg := range Registered() {
		wg.Add(1)
		go func(alg Algorithm) {
			defer wg.Done()
			m, err := Fit(alg, ds, p)
			if err != nil {
				t.Errorf("%s: fit: %v", alg.Name(), err)
				return
			}
			// Hammer the fitted model from several goroutines while the
			// other algorithms are still fitting on the shared dataset.
			var ag sync.WaitGroup
			for g := 0; g < 4; g++ {
				ag.Add(1)
				go func() {
					defer ag.Done()
					if _, err := m.AssignAll(queries, 2); err != nil {
						t.Errorf("%s: AssignAll: %v", alg.Name(), err)
					}
					for _, q := range queries[:32] {
						if _, err := m.Assign(q); err != nil {
							t.Errorf("%s: Assign: %v", alg.Name(), err)
						}
					}
				}()
			}
			ag.Wait()
		}(alg)
	}
	wg.Wait()
}

// TestRestoreRebuildsModel checks Restore against Fit: given the fitted
// Result and the training dataset, the rebuilt model must assign
// identically to the original (the kd-tree re-derivation is exact), and
// malformed persisted state must be rejected rather than served.
func TestRestoreRebuildsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows, _ := gaussianMix(rng, 4, 100, 25, 2, 150, 3)
	ds := geom.MustFromRows(rows)
	p := defaultParams()
	m, err := Fit(ExDPC{}, ds, p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore("Ex-DPC", ds, m.Result(), p, m.FitTime(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Algorithm() != "Ex-DPC" || r.FitTime() != m.FitTime() || r.NumClusters() != m.NumClusters() {
		t.Errorf("restored metadata: %s/%v/%d", r.Algorithm(), r.FitTime(), r.NumClusters())
	}
	got, err := r.AssignAll(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Result().Labels
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("restored Assign(%d) = %d, want %d", i, got[i], want[i])
		}
	}

	if _, err := Restore("nope", ds, m.Result(), p, 0, nil); err == nil {
		t.Error("unknown algorithm accepted")
	}
	bad := *m.Result()
	bad.Rho = bad.Rho[:ds.N-1]
	if _, err := Restore("Ex-DPC", ds, &bad, p, 0, nil); err == nil {
		t.Error("short rho array accepted")
	}
	bad = *m.Result()
	bad.Centers = append(append([]int32(nil), bad.Centers...), int32(ds.N))
	if _, err := Restore("Ex-DPC", ds, &bad, p, 0, nil); err == nil {
		t.Error("out-of-range center accepted")
	}
	bad = *m.Result()
	bad.Labels = append([]int32(nil), bad.Labels...)
	bad.Labels[0] = int32(len(bad.Centers))
	if _, err := Restore("Ex-DPC", ds, &bad, p, 0, nil); err == nil {
		t.Error("out-of-range label accepted")
	}

	// A shared tree is adopted as the assigner's index; one over a
	// different point count is rejected.
	shared, err := Restore("Ex-DPC", ds, m.Result(), p, 0, kdtree.BuildAll(ds))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := shared.AssignAll(rows, 2); !slices.Equal(got, want) {
		t.Error("shared-tree restore does not reproduce the fitted labels")
	}
	half := kdtree.Build(ds, []int32{0, 1, 2}, 1)
	if _, err := Restore("Ex-DPC", ds, m.Result(), p, 0, half); err == nil {
		t.Error("tree over a different point count accepted")
	}
}

// TestFitHandsOverTree covers the paper's three algorithms, whose fit
// tree becomes the model's assignment index: the model must cluster as
// ClusterDataset does and assign exactly like one restored from the
// same Result with a freshly built tree.
func TestFitHandsOverTree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	rows, _ := gaussianMix(rng, 4, 100, 25, 2, 150, 3)
	ds := geom.MustFromRows(rows)
	p := defaultParams()
	queries := make([][]float64, 0, 400)
	for range 300 {
		r := rows[rng.Intn(len(rows))]
		queries = append(queries, []float64{r[0] + rng.NormFloat64()*p.DCut, r[1] + rng.NormFloat64()*p.DCut})
	}
	for range 100 {
		queries = append(queries, []float64{rng.Float64()*300 - 75, rng.Float64()*300 - 75})
	}
	for _, alg := range []Algorithm{ExDPC{}, ApproxDPC{}, SApproxDPC{}} {
		if _, ok := alg.(treeClusterer); !ok {
			t.Fatalf("%s does not hand its tree to Fit", alg.Name())
		}
		m, err := Fit(alg, ds, p)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := alg.ClusterDataset(ds, p)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, alg.Name()+" Fit vs ClusterDataset", ds.Dim, direct, m.Result())
		fresh, err := Restore(alg.Name(), ds, m.Result(), p, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			got, _ := m.Assign(q)
			want, _ := fresh.Assign(q)
			if got != want {
				t.Fatalf("%s: Assign(query %d) = %d with the fit's tree, %d with a fresh one", alg.Name(), i, got, want)
			}
		}
		got, _ := m.AssignAll(queries, 2)
		want, _ := fresh.AssignAll(queries, 2)
		if !slices.Equal(got, want) {
			t.Errorf("%s: AssignAll differs between the fit's tree and a fresh one", alg.Name())
		}
	}
}
