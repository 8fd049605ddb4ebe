package service

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/persist"
)

// fixture returns a small bundled dataset and usable params for it.
func fixture(t *testing.T, n int) (*data.Dataset, core.Params) {
	t.Helper()
	d := data.SSet(2, n, 1)
	return d, core.Params{DCut: d.DCut, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin, Seed: 1}
}

func TestRegistry(t *testing.T) {
	s := New(Options{Workers: 2})
	d, _ := fixture(t, 500)

	if _, err := s.PutDataset("", d.Points); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := s.PutDataset("empty", &geom.Dataset{}); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := s.PutDataset("nan", geom.NewDataset([]float64{1, math.NaN()}, 2)); err == nil {
		t.Error("NaN dataset accepted")
	}

	info, err := s.PutDataset("s2", d.Points)
	if err != nil {
		t.Fatal(err)
	}
	if info.N != d.Points.N || info.Dim != 2 {
		t.Errorf("info = %+v", info)
	}
	if got, ok := s.Dataset("s2"); !ok || got != d.Points {
		t.Error("Dataset lookup failed")
	}
	if _, ok := s.Dataset("nope"); ok {
		t.Error("unknown dataset found")
	}
	list := s.Datasets()
	if len(list) != 1 || list[0].Name != "s2" {
		t.Errorf("Datasets() = %+v", list)
	}
}

func TestFitCachesModel(t *testing.T) {
	s := New(Options{Workers: 2, CacheSize: 8})
	d, p := fixture(t, 800)
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}

	fr1, err := s.Fit("s2", "Approx-DPC", p)
	if err != nil {
		t.Fatal(err)
	}
	if fr1.CacheHit {
		t.Error("first fit reported a cache hit")
	}
	fr2, err := s.Fit("s2", "Approx-DPC", p)
	if err != nil {
		t.Fatal(err)
	}
	if !fr2.CacheHit || fr2.Model != fr1.Model {
		t.Error("second fit did not reuse the cached model")
	}

	// A defaulted Epsilon must hit the same cache slot as an explicit 1.
	pe := p
	pe.Epsilon = 1
	if fr, err := s.Fit("s2", "Approx-DPC", pe); err != nil || !fr.CacheHit {
		t.Errorf("epsilon normalization broke the cache key: hit=%v err=%v", fr.CacheHit, err)
	}
	// Workers must not be part of the identity either.
	pw := p
	pw.Workers = 7
	if fr, err := s.Fit("s2", "Approx-DPC", pw); err != nil || !fr.CacheHit {
		t.Errorf("workers leaked into the cache key: hit=%v err=%v", fr.CacheHit, err)
	}
	// Seed is ignored by the deterministic algorithms, so it must not
	// split the cache for them...
	ps := p
	ps.Seed = 42
	if fr, err := s.Fit("s2", "Approx-DPC", ps); err != nil || !fr.CacheHit {
		t.Errorf("seed split the cache for a deterministic algorithm: hit=%v err=%v", fr.CacheHit, err)
	}

	// ...but it is identity for the randomized substrates.
	if fr, err := s.Fit("s2", "LSH-DDP", p); err != nil || fr.CacheHit {
		t.Fatalf("first LSH-DDP fit: hit=%v err=%v", fr.CacheHit, err)
	}
	ps2 := p
	ps2.Seed = 42
	if fr, err := s.Fit("s2", "LSH-DDP", ps2); err != nil || fr.CacheHit {
		t.Errorf("different LSH-DDP seed served from cache: hit=%v err=%v", fr.CacheHit, err)
	}

	// Different params or algorithm are distinct models.
	p2 := p
	p2.DCut *= 1.5
	if fr, err := s.Fit("s2", "Approx-DPC", p2); err != nil || fr.CacheHit {
		t.Errorf("distinct params served from cache: hit=%v err=%v", fr.CacheHit, err)
	}
	if fr, err := s.Fit("s2", "Ex-DPC", p); err != nil || fr.CacheHit {
		t.Errorf("distinct algorithm served from cache: hit=%v err=%v", fr.CacheHit, err)
	}

	st := s.Stats()
	if st.CacheHits != 4 || st.CacheMisses != 5 {
		t.Errorf("stats = %+v, want 4 hits / 5 misses", st)
	}
	if st.HitRate != 4.0/9.0 {
		t.Errorf("hit rate = %v, want 4/9", st.HitRate)
	}
}

func TestFitErrors(t *testing.T) {
	s := New(Options{Workers: 2})
	d, p := fixture(t, 300)
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fit("nope", "Approx-DPC", p); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := s.Fit("s2", "nope", p); err == nil {
		t.Error("unknown algorithm accepted")
	}
	bad := p
	bad.DCut = -1
	if _, err := s.Fit("s2", "Approx-DPC", bad); err == nil {
		t.Error("invalid params accepted")
	}
	if st := s.Stats(); st.CacheMisses != 0 {
		t.Errorf("failed requests touched the cache: %+v", st)
	}
}

// TestSingleFlight fires many concurrent fit requests for one key and
// checks exactly one ClusterDataset pass happened.
func TestSingleFlight(t *testing.T) {
	s := New(Options{Workers: 2, CacheSize: 4})
	d, p := fixture(t, 2000)
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	const g = 16
	models := make([]*core.Model, g)
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fr, err := s.Fit("s2", "Ex-DPC", p)
			if err != nil {
				t.Errorf("fit %d: %v", i, err)
				return
			}
			models[i] = fr.Model
		}(i)
	}
	wg.Wait()
	for i := 1; i < g; i++ {
		if models[i] != models[0] {
			t.Fatalf("request %d got a different model instance", i)
		}
	}
	st := s.Stats()
	if st.CacheMisses != 1 {
		t.Errorf("%d fits performed, want 1 (single-flight)", st.CacheMisses)
	}
	if st.CacheHits != g-1 {
		t.Errorf("cache hits = %d, want %d", st.CacheHits, g-1)
	}
}

func TestLRUEviction(t *testing.T) {
	s := New(Options{Workers: 2, CacheSize: 2})
	d, p := fixture(t, 400)
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	algs := []string{"Scan", "Ex-DPC", "Approx-DPC"}
	for _, a := range algs {
		if _, err := s.Fit("s2", a, p); err != nil {
			t.Fatalf("%s: %v", a, err)
		}
	}
	st := s.Stats()
	if st.ModelsCached != 2 || st.Evictions != 1 {
		t.Errorf("cached=%d evictions=%d, want 2/1", st.ModelsCached, st.Evictions)
	}
	// Scan was least recently used and must have been evicted; Ex-DPC
	// must still be resident.
	if fr, err := s.Fit("s2", "Ex-DPC", p); err != nil || !fr.CacheHit {
		t.Errorf("Ex-DPC evicted too early: hit=%v err=%v", fr.CacheHit, err)
	}
	if fr, err := s.Fit("s2", "Scan", p); err != nil || fr.CacheHit {
		t.Errorf("Scan not evicted: hit=%v err=%v", fr.CacheHit, err)
	}
}

func TestReuploadPurgesModels(t *testing.T) {
	s := New(Options{Workers: 2})
	d, p := fixture(t, 400)
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fit("s2", "Approx-DPC", p); err != nil {
		t.Fatal(err)
	}
	// Replace the dataset under the same name: the old model must not be
	// served again.
	d2 := data.SSet(2, 500, 9)
	if _, err := s.PutDataset("s2", d2.Points); err != nil {
		t.Fatal(err)
	}
	fr, err := s.Fit("s2", "Approx-DPC", p)
	if err != nil {
		t.Fatal(err)
	}
	if fr.CacheHit {
		t.Error("model fitted on replaced dataset served from cache")
	}
	if fr.Model.N() != d2.Points.N {
		t.Errorf("model fitted on stale dataset: n=%d want %d", fr.Model.N(), d2.Points.N)
	}
	if st := s.Stats(); st.ModelsCached != 1 {
		t.Errorf("stale models still cached: %+v", st)
	}
}

// TestCacheRetireDropsOnlyItsEntry drives the cache directly over two
// dataset entries: retiring one unlinks its completed and in-flight
// slots and nothing of the other's; the in-flight fill still returns its
// model, but it is neither cached nor saved, and no unlink counts as an
// eviction.
func TestCacheRetireDropsOnlyItsEntry(t *testing.T) {
	c := newModelCache(8)
	old, live := &datasetEntry{}, &datasetEntry{}
	a, b := modelKey{algorithm: "a"}, modelKey{algorithm: "b"}
	saved := 0
	save := func(*core.Model) { saved++ }
	fit := func() (*core.Model, error) { return &core.Model{}, nil }
	for _, ds := range []*datasetEntry{old, live} {
		if _, _, err := c.getOrFit(ds, a, true, fit, save); err != nil {
			t.Fatal(err)
		}
	}
	started, release := make(chan struct{}), make(chan struct{})
	inflight := &core.Model{}
	type result struct {
		m   *core.Model
		hit bool
		err error
	}
	done := make(chan result)
	go func() {
		m, hit, err := c.getOrFit(old, b, true, func() (*core.Model, error) {
			close(started)
			<-release
			return inflight, nil
		}, func(*core.Model) { t.Error("fill on a retired entry was saved") })
		done <- result{m, hit, err}
	}()
	<-started
	if _, _, _, cached := c.counters(); cached != 3 {
		t.Fatalf("cached = %d before retire, want 3", cached)
	}

	c.retire(old)
	if _, _, _, cached := c.counters(); cached != 1 {
		t.Errorf("cached = %d after retire, want 1 (the live entry's)", cached)
	}
	if _, ok := c.peekReady(old, a); ok {
		t.Error("retired entry's completed model still served")
	}
	if _, ok := c.peekReady(live, a); !ok {
		t.Error("live entry's model dropped by another entry's retirement")
	}
	close(release)
	r := <-done
	if r.err != nil || r.hit || r.m != inflight {
		t.Errorf("in-flight fill on a retired entry: m=%p hit=%v err=%v, want its model", r.m, r.hit, r.err)
	}
	// A miss on the retired entry fits for its caller alone.
	if m, hit, err := c.getOrFit(old, a, true, fit, save); err != nil || hit || m == nil {
		t.Errorf("fit on a retired entry: m=%v hit=%v err=%v", m, hit, err)
	}
	hits, misses, evictions, cached := c.counters()
	if cached != 1 || saved != 2 || evictions != 0 {
		t.Errorf("cached=%d saved=%d evictions=%d, want 1/2/0", cached, saved, evictions)
	}
	if hits != 0 || misses != 4 {
		t.Errorf("hits=%d misses=%d, want 0/4", hits, misses)
	}
}

// TestReuploadDuringFitCachesNothing forces the race its name describes:
// the assign path reads the registry entry, a re-upload of different
// points replaces it, and only then does the fit run. The request is
// answered from the entry it read, that model is not cached, and the
// next fit is a miss on the new points.
func TestReuploadDuringFitCachesNothing(t *testing.T) {
	cfg := driftConfig()
	cfg.HaloThreshold = 0 // no trips in this test
	s := New(Options{Workers: 2, Drift: cfg})
	d, p := fixture(t, 400)
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	replaced := false
	s.versionChecked = func() {
		if replaced {
			return
		}
		replaced = true
		if _, err := s.PutDataset("s2", data.SSet(2, 300, 5).Points); err != nil {
			t.Error(err)
		}
	}
	_, fr, err := s.Assign("s2", "Approx-DPC", p, rows(d.Points, 0, 50, 0))
	s.versionChecked = nil
	if err != nil {
		t.Fatal(err)
	}
	if !replaced {
		t.Fatal("seam never fired")
	}
	if fr.CacheHit || fr.Model.N() != 400 {
		t.Errorf("raced assign: hit=%v n=%d, want a fit of the entry it read (n=400)", fr.CacheHit, fr.Model.N())
	}
	if st := s.Stats(); st.ModelsCached != 0 {
		t.Fatalf("model of replaced version cached: %d", st.ModelsCached)
	}
	fr, err = s.Fit("s2", "Approx-DPC", p)
	if err != nil {
		t.Fatal(err)
	}
	if fr.CacheHit || fr.Model.N() != 300 {
		t.Errorf("fit after re-upload: hit=%v n=%d, want a miss at n=300", fr.CacheHit, fr.Model.N())
	}
}

// TestRegistryWritesRetireModels runs each registry write that displaces
// or removes a dataset version after one fit: the fitted model leaves
// the cache without counting as an eviction, and where the name is
// still resident the next fit is a miss on the new version.
func TestRegistryWritesRetireModels(t *testing.T) {
	d, p := fixture(t, 400)
	other := data.SSet(2, 350, 7).Points
	for _, tc := range []struct {
		name  string
		write func(*Service) error
	}{
		{"re-upload", func(s *Service) error {
			_, err := s.PutDataset("ds", other)
			return err
		}},
		{"append", func(s *Service) error {
			_, err := s.AppendPoints("ds", rows(d.Points, 0, 10, 0))
			return err
		}},
		{"install", func(s *Service) error {
			_, err := s.InstallSnapshot(persist.EncodeDataset("ds", 2, 2, other))
			return err
		}},
		{"reconcile", func(s *Service) error {
			if st := s.Reconcile(func(string) bool { return false }); st.DatasetsEvicted != 1 {
				return fmt.Errorf("evicted %d datasets, want 1", st.DatasetsEvicted)
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Options{Workers: 2})
			if _, err := s.PutDataset("ds", d.Points); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Fit("ds", "Ex-DPC", p); err != nil {
				t.Fatal(err)
			}
			if err := tc.write(s); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.ModelsCached != 0 || st.Evictions != 0 {
				t.Fatalf("after %s: cached=%d evictions=%d, want 0/0", tc.name, st.ModelsCached, st.Evictions)
			}
			cur, ok := s.Dataset("ds")
			if !ok {
				return
			}
			fr, err := s.Fit("ds", "Ex-DPC", p)
			if err != nil {
				t.Fatal(err)
			}
			if fr.CacheHit || fr.Model.Dataset() != cur {
				t.Errorf("fit after %s: hit=%v, fitted on the new version=%v", tc.name, fr.CacheHit, fr.Model.Dataset() == cur)
			}
		})
	}
}

// TestCacheFailedFitRetries drives the cache directly with a failing fit
// function: the error must not be cached.
func TestCacheFailedFitRetries(t *testing.T) {
	c := newModelCache(2)
	ds, key := &datasetEntry{}, modelKey{algorithm: "a"}
	boom := errors.New("boom")
	calls := 0
	fit := func() (*core.Model, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return &core.Model{}, nil
	}
	if _, _, err := c.getOrFit(ds, key, true, fit, nil); !errors.Is(err, boom) {
		t.Fatalf("first call: %v", err)
	}
	m, hit, err := c.getOrFit(ds, key, true, fit, nil)
	if err != nil || hit || m == nil {
		t.Fatalf("retry after failure: m=%v hit=%v err=%v", m, hit, err)
	}
	if calls != 2 {
		t.Errorf("fit called %d times, want 2", calls)
	}
}

func TestAssignThroughService(t *testing.T) {
	s := New(Options{Workers: 2})
	d, p := fixture(t, 600)
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	pts := d.Points.Rows()[:100]
	labels, fr, err := s.Assign("s2", "Approx-DPC", p, pts)
	if err != nil {
		t.Fatal(err)
	}
	if fr.CacheHit {
		t.Error("first assign hit the cache")
	}
	want := fr.Model.Result().Labels
	for i := range labels {
		if labels[i] != want[i] {
			t.Fatalf("label %d = %d, want fitted %d", i, labels[i], want[i])
		}
	}
	if _, fr2, err := s.Assign("s2", "Approx-DPC", p, pts); err != nil || !fr2.CacheHit {
		t.Errorf("second assign missed the cache: hit=%v err=%v", fr2.CacheHit, err)
	}
	st := s.Stats()
	if st.AssignRequests != 2 || st.PointsAssigned != 200 {
		t.Errorf("assign counters wrong: %+v", st)
	}
}

// TestServiceConcurrentMixedTraffic exercises the whole service under
// -race: concurrent fits of different models, cache-hitting fits, and
// assigns, against two datasets.
func TestServiceConcurrentMixedTraffic(t *testing.T) {
	s := New(Options{Workers: 2, CacheSize: 3})
	d, p := fixture(t, 500)
	if _, err := s.PutDataset("a", d.Points); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutDataset("b", data.SSet(3, 500, 2).Points); err != nil {
		t.Fatal(err)
	}
	algs := []string{"Scan", "Ex-DPC", "Approx-DPC", "S-Approx-DPC"}
	pts := d.Points.Rows()[:50]
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := "a"
			if i%3 == 0 {
				name = "b"
			}
			if _, _, err := s.Assign(name, algs[i%len(algs)], p, pts); err != nil {
				t.Errorf("assign %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	st := s.Stats()
	if st.AssignRequests != 24 || st.ModelsCached > 3 {
		t.Errorf("stats after mixed traffic: %+v", st)
	}
	if st.CacheMisses < 8 {
		// 2 datasets x 4 algorithms with capacity 3 must have refitted.
		t.Errorf("expected refits under eviction pressure: %+v", st)
	}
}

func TestStatsSnapshotShape(t *testing.T) {
	s := New(Options{})
	st := s.Stats()
	if st.CacheCapacity != 8 {
		t.Errorf("default cache capacity = %d, want 8", st.CacheCapacity)
	}
	if st.HitRate != 0 {
		t.Errorf("idle hit rate = %v", st.HitRate)
	}
	if fmt.Sprintf("%v", st) == "" {
		t.Error("unprintable stats")
	}
}
