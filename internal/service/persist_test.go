package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/api"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/persist"
)

func openStore(t *testing.T, dir string) *persist.Store {
	t.Helper()
	st, err := persist.Open(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRestartServesWithoutRefit is the acceptance test for the
// persistence layer: a new Service over the data dir of a previous one
// must serve every previously fitted model with zero fit passes, and its
// assignments must be byte-identical to the original's.
func TestRestartServesWithoutRefit(t *testing.T) {
	dir := t.TempDir()
	d, p := fixture(t, 600)
	queries := d.Points.Rows()[:128]
	algs := []string{"Ex-DPC", "Approx-DPC", "S-Approx-DPC"}

	s1 := New(Options{Workers: 2, Store: openStore(t, dir)})
	if _, err := s1.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]int32)
	for _, alg := range algs {
		labels, _, err := s1.Assign("s2", alg, p, queries)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		want[alg] = labels
	}

	// "Restart": a brand-new Service (fresh registry, fresh cache) over
	// the same snapshot directory, with a different worker setting to
	// prove thread count is not baked into the snapshots.
	s2 := New(Options{Workers: 4, Store: openStore(t, dir)})
	st := s2.Stats()
	if st.DatasetsRestored != 1 || st.ModelsRestored != len(algs) {
		t.Fatalf("restored %d datasets / %d models, want 1/%d", st.DatasetsRestored, st.ModelsRestored, len(algs))
	}
	if got, ok := s2.Dataset("s2"); !ok || got.Fingerprint() != d.Points.Fingerprint() {
		t.Fatal("dataset not restored bit-identically")
	}
	for _, alg := range algs {
		labels, fr, err := s2.Assign("s2", alg, p, queries)
		if err != nil {
			t.Fatalf("%s after restart: %v", alg, err)
		}
		if !fr.CacheHit {
			t.Errorf("%s after restart missed the cache", alg)
		}
		for i := range labels {
			if labels[i] != want[alg][i] {
				t.Fatalf("%s label %d = %d, want %d (restart changed assignments)", alg, i, labels[i], want[alg][i])
			}
		}
	}
	st = s2.Stats()
	if st.CacheMisses != 0 {
		t.Errorf("restarted service performed %d fits, want 0", st.CacheMisses)
	}
	if st.CacheHits != int64(len(algs)) {
		t.Errorf("cache hits = %d, want %d", st.CacheHits, len(algs))
	}
}

// TestRestartRestoresF32Dataset: an f32 dataset, saved as a kind-4
// snapshot, restores at its precision after a restart, and the Ex-DPC
// model fitted on it warm-loads and serves the same labels with no fit.
func TestRestartRestoresF32Dataset(t *testing.T) {
	dir := t.TempDir()
	d, p := fixture(t, 600)
	pts := d.Points.ToFloat32()
	queries := d.Points.Rows()[:128]

	s1 := New(Options{Workers: 2, Store: openStore(t, dir)})
	if _, err := s1.PutDataset("f", pts); err != nil {
		t.Fatal(err)
	}
	want, fr1, err := s1.Assign("f", "Ex-DPC", p, queries)
	if err != nil {
		t.Fatal(err)
	}

	s2 := New(Options{Workers: 2, Store: openStore(t, dir)})
	if st := s2.Stats(); st.DatasetsRestored != 1 || st.ModelsRestored != 1 {
		t.Fatalf("restored %d datasets / %d models, want 1/1", st.DatasetsRestored, st.ModelsRestored)
	}
	got, ok := s2.Dataset("f")
	if !ok || got.Precision() != "f32" || got.Fingerprint() != pts.Fingerprint() {
		t.Fatalf("dataset not restored bit-identically at f32 (resident %v)", ok)
	}
	labels, fr2, err := s2.Assign("f", "Ex-DPC", p, queries)
	if err != nil {
		t.Fatal(err)
	}
	if !fr2.CacheHit {
		t.Error("Ex-DPC after restart missed the cache")
	}
	labelsEqual(t, "assign after restart", labels, want)
	labelsEqual(t, "restored model", fr2.Model.Result().Labels, fr1.Model.Result().Labels)
	if st := s2.Stats(); st.CacheMisses != 0 {
		t.Errorf("restarted service performed %d fits, want 0", st.CacheMisses)
	}
}

// TestRestartEndToEndHTTP drives the restart through the real JSON API:
// upload a CSV, fit, restart, and check /v1/assign reports a cache hit
// and /v1/stats reports zero fit passes.
func TestRestartEndToEndHTTP(t *testing.T) {
	dir := t.TempDir()
	d, p := fixture(t, 500)

	var csv bytes.Buffer
	if err := data.SaveCSV(&csv, d.Points); err != nil {
		t.Fatal(err)
	}
	body := func(v any) *bytes.Reader {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(raw)
	}
	fitReq := map[string]any{
		"dataset": "s2", "algorithm": "Ex-DPC",
		"params": map[string]any{"dcut": p.DCut, "rho_min": p.RhoMin, "delta_min": p.DeltaMin},
	}

	srv1 := httptest.NewServer(NewHandler(New(Options{Workers: 2, Store: openStore(t, dir)})))
	req, _ := http.NewRequest(http.MethodPut, srv1.URL+"/v1/datasets/s2", bytes.NewReader(csv.Bytes()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %s", resp.Status)
	}
	resp, err = http.Post(srv1.URL+"/v1/fit", "application/json", body(fitReq))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fit: %s", resp.Status)
	}
	srv1.Close()

	srv2 := httptest.NewServer(NewHandler(New(Options{Workers: 2, Store: openStore(t, dir)})))
	defer srv2.Close()
	assignReq := map[string]any{
		"dataset": "s2", "algorithm": "Ex-DPC",
		"params": fitReq["params"],
		"points": d.Points.Rows()[:10],
	}
	resp, err = http.Post(srv2.URL+"/v1/assign", "application/json", body(assignReq))
	if err != nil {
		t.Fatal(err)
	}
	var ar api.AssignResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !ar.CacheHit {
		t.Error("assign after restart was not a cache hit")
	}
	if len(ar.Labels) != 10 {
		t.Errorf("got %d labels", len(ar.Labels))
	}
	resp, err = http.Get(srv2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st api.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.CacheMisses != 0 || st.ModelsRestored != 1 || st.DatasetsRestored != 1 {
		t.Errorf("stats after restart: %+v, want 0 misses and 1/1 restored", st)
	}
}

// TestRestartRecoversFromCorruptSnapshot damages one model snapshot
// between runs: the restarted service must come up, serve the intact
// model from cache, and transparently refit the damaged one.
func TestRestartRecoversFromCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	d, p := fixture(t, 500)

	s1 := New(Options{Workers: 2, Store: openStore(t, dir)})
	if _, err := s1.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"Ex-DPC", "Approx-DPC"} {
		if _, err := s1.Fit("s2", alg, p); err != nil {
			t.Fatal(err)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "models", "*.snap"))
	if err != nil || len(files) != 2 {
		t.Fatalf("want 2 model snapshots, got %d (%v)", len(files), err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var logged []string
	store, err := persist.Open(dir, func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Options{Workers: 2, Store: store})
	st := s2.Stats()
	if st.ModelsRestored != 1 {
		t.Fatalf("restored %d models past the corrupt one, want 1 (logs: %v)", st.ModelsRestored, logged)
	}
	found := false
	for _, l := range logged {
		found = found || strings.Contains(l, "skipping model")
	}
	if !found {
		t.Errorf("corruption was not logged: %v", logged)
	}
	// Both algorithms still serve; one refit total.
	for _, alg := range []string{"Ex-DPC", "Approx-DPC"} {
		if _, err := s2.Fit("s2", alg, p); err != nil {
			t.Fatalf("%s after corrupt restart: %v", alg, err)
		}
	}
	if st := s2.Stats(); st.CacheMisses != 1 {
		t.Errorf("%d refits after losing one snapshot, want exactly 1", st.CacheMisses)
	}
	// The refit re-persisted the lost model: a third run restores both.
	s3 := New(Options{Workers: 2, Store: openStore(t, dir)})
	if st := s3.Stats(); st.ModelsRestored != 2 {
		t.Errorf("self-heal failed: third run restored %d models, want 2", st.ModelsRestored)
	}
}

// TestReuploadReplacesSnapshots pins the disk half of the version purge:
// replacing a dataset must leave only the new version (and no stale
// models) for the next restart.
func TestReuploadReplacesSnapshots(t *testing.T) {
	dir := t.TempDir()
	d, p := fixture(t, 400)

	s1 := New(Options{Workers: 2, Store: openStore(t, dir)})
	if _, err := s1.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Fit("s2", "Ex-DPC", p); err != nil {
		t.Fatal(err)
	}
	d2 := data.SSet(2, 450, 9)
	if _, err := s1.PutDataset("s2", d2.Points); err != nil {
		t.Fatal(err)
	}

	s2 := New(Options{Workers: 2, Store: openStore(t, dir)})
	st := s2.Stats()
	if st.DatasetsRestored != 1 || st.ModelsRestored != 0 {
		t.Fatalf("restored %d/%d after re-upload, want 1 dataset and 0 models", st.DatasetsRestored, st.ModelsRestored)
	}
	if got, ok := s2.Dataset("s2"); !ok || got.Fingerprint() != d2.Points.Fingerprint() {
		t.Error("restart restored the replaced dataset version")
	}
	// The restored version must keep counting from 2, so a fresh upload
	// still invalidates restored state downstream.
	fr, err := s2.Fit("s2", "Ex-DPC", p)
	if err != nil {
		t.Fatal(err)
	}
	if fr.CacheHit || fr.Model.N() != d2.Points.N {
		t.Errorf("fit after restart: hit=%v n=%d, want refit on %d points", fr.CacheHit, fr.Model.N(), d2.Points.N)
	}
}

// TestInMemoryServiceUnchanged pins the default: no Store, no disk IO,
// Stats report nothing restored.
func TestInMemoryServiceUnchanged(t *testing.T) {
	s := New(Options{Workers: 2})
	d, p := fixture(t, 300)
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fit("s2", "Ex-DPC", p); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.DatasetsRestored != 0 || st.ModelsRestored != 0 || st.PersistErrors != 0 {
		t.Errorf("in-memory service reports persistence activity: %+v", st)
	}
}

// TestIdenticalReuploadKeepsModels pins the idempotent-upload rule: a
// bit-identical re-PUT of a dataset must not bump the version, purge the
// cache, or touch the snapshots — on either the live service or a
// restart.
func TestIdenticalReuploadKeepsModels(t *testing.T) {
	dir := t.TempDir()
	d, p := fixture(t, 400)
	s := New(Options{Workers: 2, Store: openStore(t, dir)})
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fit("s2", "Ex-DPC", p); err != nil {
		t.Fatal(err)
	}
	// Same bits under a fresh Dataset value (provisioning scripts re-read
	// the file; pointer identity must not matter).
	copyDS := *d.Points
	copyDS.Coords = append([]float64(nil), d.Points.Coords...)
	if _, err := s.PutDataset("s2", &copyDS); err != nil {
		t.Fatal(err)
	}
	fr, err := s.Fit("s2", "Ex-DPC", p)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.CacheHit {
		t.Error("identical re-upload purged the cached model")
	}
	s2 := New(Options{Workers: 2, Store: openStore(t, dir)})
	if st := s2.Stats(); st.ModelsRestored != 1 {
		t.Errorf("identical re-upload broke snapshots: restored %d models, want 1", st.ModelsRestored)
	}
}

// TestRestoreRespectsCacheCapacity: with more model snapshots than cache
// slots, only the most recently persisted models are restored and Stats
// report exactly what is resident — no phantom evictions.
func TestRestoreRespectsCacheCapacity(t *testing.T) {
	dir := t.TempDir()
	d, p := fixture(t, 400)
	s1 := New(Options{Workers: 2, CacheSize: 8, Store: openStore(t, dir)})
	if _, err := s1.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	algs := []string{"Scan", "Ex-DPC", "Approx-DPC", "S-Approx-DPC"}
	for _, alg := range algs {
		if _, err := s1.Fit("s2", alg, p); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}

	s2 := New(Options{Workers: 2, CacheSize: 2, Store: openStore(t, dir)})
	st := s2.Stats()
	if st.ModelsRestored != 2 || st.ModelsCached != 2 || st.Evictions != 0 {
		t.Fatalf("restored=%d cached=%d evictions=%d, want 2/2/0", st.ModelsRestored, st.ModelsCached, st.Evictions)
	}
	// The two most recently persisted algorithms are the warm ones.
	for _, alg := range algs[2:] {
		if fr, err := s2.Fit("s2", alg, p); err != nil || !fr.CacheHit {
			t.Errorf("%s: hit=%v err=%v, want warm", alg, fr.CacheHit, err)
		}
	}
	if st := s2.Stats(); st.CacheMisses != 0 {
		t.Errorf("warm models refit: %d misses", st.CacheMisses)
	}
}

// TestOverlongNamePersistErrorDegrades: a dataset name the snapshot
// codec cannot round-trip must not be written (it could never restore);
// the service keeps serving it in memory and counts the persist error.
func TestOverlongNamePersistErrorDegrades(t *testing.T) {
	dir := t.TempDir()
	d, p := fixture(t, 300)
	s := New(Options{Workers: 2, Store: openStore(t, dir)})
	long := strings.Repeat("x", 5000)
	if _, err := s.PutDataset(long, d.Points); err != nil {
		t.Fatalf("in-memory registration must still work: %v", err)
	}
	if _, err := s.Fit(long, "Ex-DPC", p); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.PersistErrors == 0 {
		t.Error("unpersistable name was not counted")
	}
	if s2 := New(Options{Workers: 2, Store: openStore(t, dir)}); s2.Stats().DatasetsRestored != 0 {
		t.Error("an unrestorable snapshot was written anyway")
	}
}

// TestIdenticalReuploadHealsDamagedSnapshot: when the dataset snapshot
// is lost while the service runs (wiped disk, failed original save), an
// idempotent re-upload of the same points must rewrite it so the next
// restart warm-loads again.
func TestIdenticalReuploadHealsDamagedSnapshot(t *testing.T) {
	dir := t.TempDir()
	d, p := fixture(t, 400)
	s := New(Options{Workers: 2, Store: openStore(t, dir)})
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fit("s2", "Ex-DPC", p); err != nil {
		t.Fatal(err)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "datasets", "*.snap"))
	if len(paths) != 1 {
		t.Fatal("want one dataset snapshot")
	}
	if err := os.Remove(paths[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PersistErrors != 0 {
		t.Errorf("healing re-upload counted errors: %+v", st)
	}
	s2 := New(Options{Workers: 2, Store: openStore(t, dir)})
	if st := s2.Stats(); st.DatasetsRestored != 1 || st.ModelsRestored != 1 {
		t.Errorf("after heal restored %d/%d, want 1/1", st.DatasetsRestored, st.ModelsRestored)
	}
}

// TestRestartCorruptDatasetDropsItsModels: a restart that loses a
// dataset snapshot to damage also drops every model computed on it —
// the installer refuses a snapshot whose dataset is not resident — and
// logs each skip, so the loss costs refits, never a model serving
// points it was not fitted on.
func TestRestartCorruptDatasetDropsItsModels(t *testing.T) {
	dir := t.TempDir()
	d, p := fixture(t, 400)
	s1 := New(Options{Workers: 2, Store: openStore(t, dir)})
	if _, err := s1.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"Scan", "Approx-DPC"} {
		if _, err := s1.Fit("s2", alg, p); err != nil {
			t.Fatal(err)
		}
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "datasets", "*.snap"))
	if len(paths) != 1 {
		t.Fatal("want one dataset snapshot")
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(paths[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var logged []string
	store, err := persist.Open(dir, func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Options{Workers: 2, Store: store})
	st := s2.Stats()
	if st.DatasetsRestored != 0 || st.ModelsRestored != 0 || st.ModelsCached != 0 {
		t.Errorf("restored %d/%d datasets/models (%d cached) from a corrupt dataset, want none",
			st.DatasetsRestored, st.ModelsRestored, st.ModelsCached)
	}
	for _, want := range []string{"skipping dataset", "skipping model"} {
		found := false
		for _, l := range logged {
			found = found || strings.Contains(l, want)
		}
		if !found {
			t.Errorf("no %q line logged: %v", want, logged)
		}
	}
}

// TestStoreWritesNoIndex: a density index is derived state. A
// Store-backed service that uploads, builds an index with a decision
// graph and slides it through five window appends writes no index
// snapshot and no manifest entry for one.
func TestStoreWritesNoIndex(t *testing.T) {
	dir := t.TempDir()
	d, p := fixture(t, 800)
	s := New(Options{Workers: 2, Store: openStore(t, dir), Window: 600})
	if _, err := s.PutDataset("s2", geom.MustFromRows(rows(d.Points, 0, 600, 0))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DecisionGraph("s2", p.DCut, 5); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		resp, err := s.AppendPoints("s2", rows(d.Points, 600+40*k, 640+40*k, 0))
		if err != nil {
			t.Fatal(err)
		}
		if !resp.IndexUpdated {
			t.Fatalf("append %d did not slide the resident index", k)
		}
	}
	if st := s.Stats(); st.IndexBuilds != 1 || st.IndexUpdates != 5 || st.PersistErrors != 0 {
		t.Errorf("builds=%d updates=%d persist errors=%d, want 1/5/0", st.IndexBuilds, st.IndexUpdates, st.PersistErrors)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "indexes", "*")); len(files) != 0 {
		t.Errorf("index files written: %v", files)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"indexes"`)) {
		t.Errorf("manifest lists indexes:\n%s", raw)
	}
}

// TestRestoreLegacyIndexDataDir: a data dir written by an older version
// holds a kind-3 density-index snapshot under indexes/ and an indexes
// list in its manifest. It still restores every dataset and model, the
// index is rebuilt on demand, and the next manifest save drops the list.
func TestRestoreLegacyIndexDataDir(t *testing.T) {
	dir := t.TempDir()
	d, p := fixture(t, 400)
	queries := d.Points.Rows()[:64]
	algs := []string{"Ex-DPC", "Approx-DPC"}
	s1 := New(Options{Workers: 2, Store: openStore(t, dir)})
	if _, err := s1.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	want := map[string][]int32{}
	for _, alg := range algs {
		labels, _, err := s1.Assign("s2", alg, p, queries)
		if err != nil {
			t.Fatal(err)
		}
		want[alg] = labels
	}

	// Add what an older version wrote beside them.
	if err := os.MkdirAll(filepath.Join(dir, "indexes"), 0o755); err != nil {
		t.Fatal(err)
	}
	dsImage := s1.ReplicationSnapshots("s2")[0]
	const legacy = "indexes/00000000deadbeef-v1.snap"
	if err := os.WriteFile(filepath.Join(dir, legacy), legacyIndexImage(dsImage), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m["indexes"] = []map[string]any{{"dataset": "s2", "version": 1, "dcut_max": 1.5 * p.DCut, "file": legacy}}
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(Options{Workers: 2, Store: openStore(t, dir)})
	if st := s2.Stats(); st.DatasetsRestored != 1 || st.ModelsRestored != len(algs) {
		t.Fatalf("restored %d datasets / %d models, want 1/%d", st.DatasetsRestored, st.ModelsRestored, len(algs))
	}
	for _, alg := range algs {
		labels, fr, err := s2.Assign("s2", alg, p, queries)
		if err != nil {
			t.Fatal(err)
		}
		if !fr.CacheHit {
			t.Errorf("%s refitted after the restart", alg)
		}
		labelsEqual(t, alg, labels, want[alg])
	}
	if g, err := s2.DecisionGraph("s2", p.DCut, 5); err != nil || g.IndexReused {
		t.Fatalf("decision graph after restart: %v (index reused: %v), want a rebuild", err, g != nil && g.IndexReused)
	}

	if _, err := s2.PutDataset("other", geom.MustFromRows(rows(d.Points, 0, 50, 0))); err != nil {
		t.Fatal(err)
	}
	if raw, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"indexes"`)) {
		t.Errorf("the next manifest save kept the indexes list:\n%s", raw)
	}
}

// TestRestartKeepsEpoch: an appended version restores with the epoch of
// the upload it descends from, so after a restart the node still ships
// its slides as continuations of the replicas' resident history.
func TestRestartKeepsEpoch(t *testing.T) {
	dir := t.TempDir()
	d, _ := fixture(t, 400)
	s := New(Options{Workers: 2, Store: openStore(t, dir)})
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutDataset("s2", geom.MustFromRows(rows(d.Points, 0, 300, 0))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendPoints("s2", rows(d.Points, 300, 310, 0)); err != nil {
		t.Fatal(err)
	}
	restarted := New(Options{Workers: 2, Store: openStore(t, dir)})
	snaps := restarted.ReplicationSnapshots("s2")
	if len(snaps) == 0 {
		t.Fatal("dataset not restored")
	}
	v, err := persist.DecodeSnapshot(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if sn := v.(*persist.DatasetSnapshot); sn.Version != 3 || sn.Epoch != 2 {
		t.Fatalf("restored v%d epoch %d, want v3 epoch 2", sn.Version, sn.Epoch)
	}
}
