package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
)

// capture collects store log lines so tests can assert recovery was
// reported, not silent.
type capture struct{ lines []string }

func (c *capture) logf(format string, args ...any) {
	c.lines = append(c.lines, fmt.Sprintf(format, args...))
}

func (c *capture) contains(sub string) bool {
	for _, l := range c.lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

func fitModel(t *testing.T, ds *geom.Dataset, algorithm string, p core.Params) *core.Model {
	t.Helper()
	alg, ok := core.AlgorithmByName(algorithm)
	if !ok {
		t.Fatalf("unknown algorithm %s", algorithm)
	}
	m, err := core.Fit(alg, ds, p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	logs := &capture{}
	st, err := Open(dir, logs.logf)
	if err != nil {
		t.Fatal(err)
	}
	d := data.SSet(2, 400, 1)
	p := core.Params{DCut: d.DCut, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin, Workers: 2}
	m := fitModel(t, d.Points, "Ex-DPC", p)

	if err := st.SaveDataset("s2", 1, 1, d.Points); err != nil {
		t.Fatal(err)
	}
	key := ModelKey{Dataset: "s2", Version: 1, Algorithm: "Ex-DPC", Params: p}
	if err := st.SaveModel(key, m); err != nil {
		t.Fatal(err)
	}

	// A brand-new store over the same directory must read both back.
	st2, err := Open(dir, logs.logf)
	if err != nil {
		t.Fatal(err)
	}
	dss, models := st2.RestoreOwned(nil)
	if len(dss) != 1 || len(models) != 1 {
		t.Fatalf("restored %d datasets, %d models; want 1/1 (logs: %v)", len(dss), len(models), logs.lines)
	}
	if dss[0].Name != "s2" || dss[0].Version != 1 || dss[0].Points.Fingerprint() != d.Points.Fingerprint() {
		t.Errorf("dataset identity drifted: %q v%d", dss[0].Name, dss[0].Version)
	}
	ms := models[0]
	if ms.Key.Params.Workers != 0 {
		t.Errorf("persisted key retains Workers=%d", ms.Key.Params.Workers)
	}
	if ms.Key.Dataset != "s2" || ms.Key.Version != 1 || ms.DatasetFingerprint != d.Points.Fingerprint() {
		t.Errorf("model snapshot not tied to its dataset: %+v, fingerprint %#x", ms.Key, ms.DatasetFingerprint)
	}
	// The fitted result comes back bit for bit; rebuilding a servable
	// model from it is the serving layer's job (TestRestartServesWithoutRefit).
	want := m.Result()
	if !slices.Equal(ms.Result.Labels, want.Labels) || !slices.Equal(ms.Result.Centers, want.Centers) ||
		!slices.Equal(ms.Result.Dep, want.Dep) || !slices.Equal(ms.Result.Rho, want.Rho) {
		t.Error("restored result differs from the fitted one")
	}
	if ms.FitTime != m.FitTime() {
		t.Errorf("fit time not preserved: %v != %v", ms.FitTime, m.FitTime())
	}
}

func TestStoreReplaceDatasetPrunesOldVersion(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, (&capture{}).logf)
	if err != nil {
		t.Fatal(err)
	}
	d1 := data.SSet(2, 300, 1)
	d2 := data.SSet(2, 350, 2)
	p := core.Params{DCut: d1.DCut, RhoMin: d1.RhoMin, DeltaMin: d1.DeltaMin, Workers: 1}
	if err := st.SaveDataset("s2", 1, 1, d1.Points); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveModel(ModelKey{Dataset: "s2", Version: 1, Algorithm: "Ex-DPC", Params: p},
		fitModel(t, d1.Points, "Ex-DPC", p)); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveDataset("s2", 2, 2, d2.Points); err != nil {
		t.Fatal(err)
	}

	dss, models := st.RestoreOwned(nil)
	if len(dss) != 1 || dss[0].Version != 2 {
		t.Fatalf("restore after replace: %d datasets (v%d)", len(dss), dss[0].Version)
	}
	if len(models) != 0 {
		t.Fatalf("model fitted on replaced version survived: %+v", models[0].Key)
	}
	// A stale save arriving late (the upload race) must be a no-op.
	if err := st.SaveDataset("s2", 1, 1, d1.Points); err != nil {
		t.Fatal(err)
	}
	if dss, _ := st.RestoreOwned(nil); dss[0].Version != 2 {
		t.Errorf("stale version-1 save replaced version 2")
	}
	// Only the live snapshots remain on disk.
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Errorf("%d snapshot files on disk, want 1: %v", len(files), files)
	}
}

// TestStoreRecovery damages snapshots in every way the recovery contract
// names — truncation, bit rot, deletion, a corrupt manifest — and checks
// each costs exactly its own entry, with a log line, never a crash.
func TestStoreRecovery(t *testing.T) {
	build := func(t *testing.T) (string, *data.Dataset, core.Params) {
		dir := t.TempDir()
		st, err := Open(dir, (&capture{}).logf)
		if err != nil {
			t.Fatal(err)
		}
		d := data.SSet(2, 300, 1)
		p := core.Params{DCut: d.DCut, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin, Workers: 1}
		if err := st.SaveDataset("s2", 1, 1, d.Points); err != nil {
			t.Fatal(err)
		}
		for _, alg := range []string{"Ex-DPC", "Approx-DPC"} {
			if err := st.SaveModel(ModelKey{Dataset: "s2", Version: 1, Algorithm: alg, Params: p},
				fitModel(t, d.Points, alg, p)); err != nil {
				t.Fatal(err)
			}
		}
		return dir, d, p
	}
	one := func(t *testing.T, glob string, damage func(t *testing.T, path string)) (ds, models int, logs *capture) {
		dir, _, _ := build(t)
		paths, err := filepath.Glob(filepath.Join(dir, glob))
		if err != nil || len(paths) == 0 {
			t.Fatalf("glob %s: %v (%d hits)", glob, err, len(paths))
		}
		damage(t, paths[0])
		logs = &capture{}
		st, err := Open(dir, logs.logf)
		if err != nil {
			t.Fatal(err)
		}
		d, m := st.RestoreOwned(nil)
		return len(d), len(m), logs
	}
	truncate := func(t *testing.T, path string) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flip := func(t *testing.T, path string) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-1] ^= 0x40
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	remove := func(t *testing.T, path string) {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("truncated model", func(t *testing.T) {
		ds, models, logs := one(t, "models/*.snap", truncate)
		if ds != 1 || models != 1 {
			t.Errorf("restored %d/%d, want 1 dataset and the surviving model", ds, models)
		}
		if !logs.contains("skipping model") {
			t.Errorf("silent recovery: %v", logs.lines)
		}
	})
	t.Run("bit-rotted model", func(t *testing.T) {
		if ds, models, _ := one(t, "models/*.snap", flip); ds != 1 || models != 1 {
			t.Errorf("restored %d/%d, want 1/1", ds, models)
		}
	})
	t.Run("deleted model file", func(t *testing.T) {
		if ds, models, _ := one(t, "models/*.snap", remove); ds != 1 || models != 1 {
			t.Errorf("restored %d/%d, want 1/1", ds, models)
		}
	})
	// Reading does not pair models with datasets: a model whose dataset
	// snapshot is lost still decodes, and the serving layer's installer
	// refuses it (TestRestartCorruptDatasetDropsItsModels).
	t.Run("corrupt dataset is skipped", func(t *testing.T) {
		ds, models, logs := one(t, "datasets/*.snap", flip)
		if ds != 0 || models != 2 {
			t.Errorf("restored %d/%d from a corrupt dataset, want 0 datasets and both models", ds, models)
		}
		if !logs.contains("skipping dataset") {
			t.Errorf("recovery not logged: %v", logs.lines)
		}
	})
	t.Run("corrupt manifest starts empty", func(t *testing.T) {
		ds, models, logs := one(t, "manifest.json", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
				t.Fatal(err)
			}
		})
		if ds != 0 || models != 0 {
			t.Errorf("restored %d/%d from corrupt manifest", ds, models)
		}
		if !logs.contains("corrupt manifest") {
			t.Errorf("corrupt manifest not logged: %v", logs.lines)
		}
	})
	t.Run("swapped model file is rejected", func(t *testing.T) {
		dir, _, _ := build(t)
		paths, err := filepath.Glob(filepath.Join(dir, "models", "*.snap"))
		if err != nil || len(paths) != 2 {
			t.Fatalf("want 2 model files, got %d (%v)", len(paths), err)
		}
		// Swap the two files: each now holds the other's key, which must
		// fail the manifest cross-check.
		a, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(paths[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paths[0], b, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paths[1], a, 0o644); err != nil {
			t.Fatal(err)
		}
		logs := &capture{}
		st, err := Open(dir, logs.logf)
		if err != nil {
			t.Fatal(err)
		}
		if _, models := st.RestoreOwned(nil); len(models) != 0 {
			t.Errorf("swapped snapshots restored: %d models", len(models))
		}
	})
}

func TestOpenCreatesLayout(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "data")
	st, err := Open(dir, (&capture{}).logf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dir() != dir {
		t.Errorf("Dir() = %q", st.Dir())
	}
	for _, sub := range []string{"datasets", "models"} {
		if fi, err := os.Stat(filepath.Join(dir, sub)); err != nil || !fi.IsDir() {
			t.Errorf("missing %s/: %v", sub, err)
		}
	}
	if ds, models := st.RestoreOwned(nil); len(ds) != 0 || len(models) != 0 {
		t.Errorf("fresh store restored %d/%d", len(ds), len(models))
	}
}

// TestSaveModelRequiresDatasetSnapshot: a model whose dataset snapshot
// never landed (failed save) could never restore, so SaveModel must
// refuse it rather than write dead weight that silently refits later.
func TestSaveModelRequiresDatasetSnapshot(t *testing.T) {
	st, err := Open(t.TempDir(), (&capture{}).logf)
	if err != nil {
		t.Fatal(err)
	}
	d := data.SSet(2, 300, 1)
	p := core.Params{DCut: d.DCut, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin, Workers: 1}
	m := fitModel(t, d.Points, "Ex-DPC", p)
	key := ModelKey{Dataset: "s2", Version: 1, Algorithm: "Ex-DPC", Params: p}
	if err := st.SaveModel(key, m); err == nil {
		t.Fatal("model persisted without its dataset snapshot")
	}
	if files, _ := filepath.Glob(filepath.Join(st.Dir(), "models", "*.snap")); len(files) != 0 {
		t.Errorf("orphan model file written: %v", files)
	}
	// Once the dataset snapshot exists the same save succeeds.
	if err := st.SaveDataset("s2", 1, 1, d.Points); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveModel(key, m); err != nil {
		t.Fatal(err)
	}
}

// TestEnsureDatasetHeals: EnsureDataset is a no-op over a healthy
// snapshot, at either precision, and a rewrite over a damaged or missing
// one.
func TestEnsureDatasetHeals(t *testing.T) {
	d := data.SSet(2, 300, 1)
	for _, ds := range []*geom.Dataset{d.Points, d.Points.ToFloat32()} {
		t.Run(ds.Precision(), func(t *testing.T) { testEnsureDatasetHeals(t, ds) })
	}
}

func testEnsureDatasetHeals(t *testing.T, ds *geom.Dataset) {
	dir := t.TempDir()
	st, err := Open(dir, (&capture{}).logf)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveDataset("s2", 1, 1, ds); err != nil {
		t.Fatal(err)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "datasets", "*.snap"))
	if len(paths) != 1 {
		t.Fatal("want one dataset snapshot")
	}
	before, err := os.Stat(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := st.EnsureDataset("s2", 1, 1, ds); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Error("EnsureDataset rewrote a healthy snapshot")
	}
	if err := os.Truncate(paths[0], 4); err != nil {
		t.Fatal(err)
	}
	if err := st.EnsureDataset("s2", 1, 1, ds); err != nil {
		t.Fatal(err)
	}
	if dss, _ := st.RestoreOwned(nil); len(dss) != 1 {
		t.Error("EnsureDataset did not heal the damaged snapshot")
	}
}

// TestSaveModelKeepsRecencyOrder: re-persisting an existing key (refit
// after eviction) must move it to the manifest tail, because the warm
// load trims to cache capacity from the tail.
func TestSaveModelKeepsRecencyOrder(t *testing.T) {
	st, err := Open(t.TempDir(), (&capture{}).logf)
	if err != nil {
		t.Fatal(err)
	}
	d := data.SSet(2, 300, 1)
	p := core.Params{DCut: d.DCut, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin, Workers: 1}
	if err := st.SaveDataset("s2", 1, 1, d.Points); err != nil {
		t.Fatal(err)
	}
	algs := []string{"Scan", "Ex-DPC", "Approx-DPC"}
	for _, alg := range algs {
		if err := st.SaveModel(ModelKey{Dataset: "s2", Version: 1, Algorithm: alg, Params: p},
			fitModel(t, d.Points, alg, p)); err != nil {
			t.Fatal(err)
		}
	}
	// Refit + re-persist the oldest key; it must become the most recent.
	if err := st.SaveModel(ModelKey{Dataset: "s2", Version: 1, Algorithm: "Scan", Params: p},
		fitModel(t, d.Points, "Scan", p)); err != nil {
		t.Fatal(err)
	}
	_, models := st.RestoreOwned(nil)
	if len(models) != 3 {
		t.Fatalf("restored %d models", len(models))
	}
	want := []string{"Ex-DPC", "Approx-DPC", "Scan"}
	for i, ms := range models {
		if ms.Key.Algorithm != want[i] {
			t.Errorf("restore order[%d] = %s, want %s", i, ms.Key.Algorithm, want[i])
		}
	}
}

// TestModelKeyHashGolden pins ModelKey.Hash across releases. The sharding
// layer assumes a shard that inherits keys after a ring membership change
// computes the same snapshot filenames the original writer produced; a
// changed hash would orphan every model snapshot on disk.
func TestModelKeyHashGolden(t *testing.T) {
	cases := []struct {
		key  ModelKey
		want uint64
	}{
		{ModelKey{Dataset: "s2", Version: 1, Algorithm: "Ex-DPC",
			Params: core.Params{DCut: 0.05, RhoMin: 25, DeltaMin: 0.2}}, 0x04d2b7514748d56a},
		{ModelKey{Dataset: "pamap2", Version: 3, Algorithm: "Approx-DPC",
			Params: core.Params{DCut: 1.5, RhoMin: 10, DeltaMin: 6, Seed: 42}}, 0x251d4395288ae768},
		{ModelKey{Dataset: "syn", Version: 2, Algorithm: "S-Approx-DPC",
			Params: core.Params{DCut: 0.1, RhoMin: 5, DeltaMin: 0.5, Epsilon: 0.75}}, 0x82d9a601210ba165},
		{ModelKey{Dataset: "household", Version: 7, Algorithm: "Scan",
			Params: core.Params{DCut: 2, RhoMin: 1, DeltaMin: 9}}, 0xbc05d9fca259b00e},
	}
	for _, c := range cases {
		if got := c.key.Hash(); got != c.want {
			t.Errorf("ModelKey.Hash(%s/%s v%d) = %#016x, want %#016x — the hash must be stable across restarts",
				c.key.Dataset, c.key.Algorithm, c.key.Version, got, c.want)
		}
	}
	// Workers must already be zeroed by callers; the hash treats it as
	// identity like every other Params field, so two keys differing only
	// in Workers are different keys.
	k := cases[0].key
	k.Params.Workers = 8
	if k.Hash() == cases[0].want {
		t.Error("ModelKey.Hash ignored Params.Workers; SaveModel zeroes it, the hash must not")
	}
}

// TestRestoreOwned: the filter restores exactly the accepted datasets and
// their models, leaves everything else on disk untouched, and a later
// unfiltered restore still sees the full store — the "evict, don't
// delete" contract of ring rebalancing.
func TestRestoreOwned(t *testing.T) {
	logs := &capture{}
	st, err := Open(t.TempDir(), logs.logf)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"alpha", "beta", "gamma"}
	p := core.Params{DCut: 0.06, RhoMin: 3, DeltaMin: 0.3, Workers: 1}
	for i, name := range names {
		d := data.SSet(2, 300, int64(i+1))
		if err := st.SaveDataset(name, 1, 1, d.Points); err != nil {
			t.Fatal(err)
		}
		if err := st.SaveModel(ModelKey{Dataset: name, Version: 1, Algorithm: "Ex-DPC", Params: p},
			fitModel(t, d.Points, "Ex-DPC", p)); err != nil {
			t.Fatal(err)
		}
	}
	owned := map[string]bool{"alpha": true, "gamma": true}
	dss, models := st.RestoreOwned(func(name string) bool { return owned[name] })
	if len(dss) != 2 || len(models) != 2 {
		t.Fatalf("RestoreOwned loaded %d datasets / %d models, want 2/2", len(dss), len(models))
	}
	for _, d := range dss {
		if !owned[d.Name] {
			t.Errorf("RestoreOwned loaded unowned dataset %q", d.Name)
		}
	}
	for _, m := range models {
		if !owned[m.Key.Dataset] {
			t.Errorf("RestoreOwned loaded model for unowned dataset %q", m.Key.Dataset)
		}
	}
	if logs.contains("skipping") {
		t.Errorf("filtered snapshots were logged as damage: %v", logs.lines)
	}
	// Nothing was deleted: a full restore still sees all three.
	dss, models = st.RestoreOwned(nil)
	if len(dss) != 3 || len(models) != 3 {
		t.Fatalf("unfiltered RestoreOwned after a filtered one got %d datasets / %d models, want 3/3", len(dss), len(models))
	}
}
