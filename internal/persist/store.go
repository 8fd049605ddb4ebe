package persist

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/geom"
)

// manifestFormat versions the manifest schema, independently of the
// snapshot container version.
const manifestFormat = 1

// manifestName is the registry file inside the data dir.
const manifestName = "manifest.json"

// manifestFile is the on-disk registry of live snapshots. Snapshot files
// not referenced here are ignored on restore (orphans from interrupted
// replacements), so the manifest is the single source of truth.
// A manifest from an older version may also list density-index
// snapshots under "indexes"; decoding ignores the unknown field, so the
// next save drops it.
type manifestFile struct {
	Format   int               `json:"format"`
	Datasets []manifestDataset `json:"datasets"`
	Models   []manifestModel   `json:"models"`
}

type manifestDataset struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	File    string `json:"file"`
}

type manifestParams struct {
	DCut     float64 `json:"dcut"`
	RhoMin   float64 `json:"rho_min"`
	DeltaMin float64 `json:"delta_min"`
	Epsilon  float64 `json:"epsilon,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
}

type manifestModel struct {
	Dataset   string         `json:"dataset"`
	Version   uint64         `json:"version"`
	Algorithm string         `json:"algorithm"`
	Params    manifestParams `json:"params"`
	File      string         `json:"file"`
}

func (p manifestParams) core() core.Params {
	return core.Params{DCut: p.DCut, RhoMin: p.RhoMin, DeltaMin: p.DeltaMin, Epsilon: p.Epsilon, Seed: p.Seed}
}

func manifestParamsOf(p core.Params) manifestParams {
	return manifestParams{DCut: p.DCut, RhoMin: p.RhoMin, DeltaMin: p.DeltaMin, Epsilon: p.Epsilon, Seed: p.Seed}
}

func (m manifestModel) key() ModelKey {
	return ModelKey{Dataset: m.Dataset, Version: m.Version, Algorithm: m.Algorithm, Params: m.Params.core()}
}

// Store is a snapshot directory: manifest.json plus datasets/ and models/
// subdirectories of checksummed snapshot files. All writes are atomic
// (write to a temp file in the same directory, fsync, rename), and all
// reads treat damage as data loss to log and skip, never as a reason to
// fail startup. Safe for concurrent use.
type Store struct {
	dir  string
	logf func(format string, args ...any)

	mu sync.Mutex
	m  manifestFile
}

// Open creates or reopens a snapshot directory. A missing directory is
// created; a missing manifest means an empty store; an unreadable or
// corrupt manifest is logged and treated as empty (snapshot files are
// left on disk but unreachable until rewritten). logf defaults to
// log.Printf.
func Open(dir string, logf func(format string, args ...any)) (*Store, error) {
	if logf == nil {
		logf = log.Printf
	}
	for _, d := range []string{dir, filepath.Join(dir, "datasets"), filepath.Join(dir, "models")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
	}
	s := &Store{dir: dir, logf: logf, m: manifestFile{Format: manifestFormat}}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case os.IsNotExist(err):
	case err != nil:
		logf("persist: reading manifest: %v; starting empty", err)
	default:
		var m manifestFile
		if err := json.Unmarshal(raw, &m); err != nil {
			logf("persist: corrupt manifest: %v; starting empty", err)
		} else if m.Format != manifestFormat {
			logf("persist: manifest format %d, want %d; starting empty", m.Format, manifestFormat)
		} else {
			s.m = m
		}
	}
	return s, nil
}

// Dir returns the snapshot directory.
func (s *Store) Dir() string { return s.dir }

// Log writes to the store's logger; the serving layer routes its own
// persistence diagnostics here so daemon and tests share one sink.
func (s *Store) Log(format string, args ...any) { s.logf(format, args...) }

// SaveDataset snapshots one dataset version of the upload history that
// began at version epoch. Replacing a name removes the previous version's
// dataset snapshot and every model fitted on it — the disk mirror of the
// serving layer retiring the replaced version with its models. A save
// that has already been superseded by a newer version is skipped.
func (s *Store) SaveDataset(name string, version, epoch uint64, ds *geom.Dataset) error {
	// Refuse to write what Restore would refuse to read: a snapshot that
	// saves fine but can never load is worse than a counted persist error.
	if len(name) > maxNameLen {
		return fmt.Errorf("persist: dataset name of %d bytes exceeds the %d-byte snapshot limit", len(name), maxNameLen)
	}
	rel := filepath.Join("datasets", fmt.Sprintf("%016x-v%d.snap", hashString(name), version))
	raw := EncodeDataset(name, version, epoch, ds)

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.m.Datasets {
		if e.Name == name && e.Version > version {
			return nil // a newer upload already landed; this save is stale
		}
	}
	if err := writeFileAtomic(filepath.Join(s.dir, rel), raw); err != nil {
		return err
	}
	var remove []string
	kept := s.m.Datasets[:0]
	for _, e := range s.m.Datasets {
		if e.Name == name {
			if e.File != rel {
				remove = append(remove, e.File)
			}
			continue
		}
		kept = append(kept, e)
	}
	s.m.Datasets = append(kept, manifestDataset{Name: name, Version: version, File: rel})
	keptM := s.m.Models[:0]
	for _, e := range s.m.Models {
		if e.Dataset == name && e.Version != version {
			remove = append(remove, e.File)
			continue
		}
		keptM = append(keptM, e)
	}
	s.m.Models = keptM
	if err := s.saveManifestLocked(); err != nil {
		return err
	}
	// Stale files go last: if the manifest write had failed they would
	// still be referenced; failing to remove them leaves ignorable orphans.
	for _, rel := range remove {
		if err := os.Remove(filepath.Join(s.dir, rel)); err != nil && !os.IsNotExist(err) {
			s.logf("persist: removing stale snapshot %s: %v", rel, err)
		}
	}
	return nil
}

// SaveModel snapshots one fitted model under its identity key. Workers is
// forced to zero on disk (host policy, not model identity). A model for a
// dataset version the manifest has already replaced is skipped.
func (s *Store) SaveModel(k ModelKey, m *core.Model) error {
	if len(k.Dataset) > maxNameLen || len(k.Algorithm) > maxNameLen {
		return fmt.Errorf("persist: model key names exceed the %d-byte snapshot limit", maxNameLen)
	}
	k.Params.Workers = 0
	rel := filepath.Join("models", fmt.Sprintf("%016x.snap", k.Hash()))
	raw := EncodeModel(k, m.Dataset().Fingerprint(), m.FitTime(), m.Result())

	s.mu.Lock()
	defer s.mu.Unlock()
	found := false
	for _, e := range s.m.Datasets {
		if e.Name != k.Dataset {
			continue
		}
		if e.Version > k.Version {
			return nil // fitted on a replaced version; don't persist
		}
		found = e.Version == k.Version
		break
	}
	if !found {
		// Without the dataset snapshot the model could never restore;
		// surface it as a persist error instead of writing dead weight.
		return fmt.Errorf("persist: no dataset snapshot for %s v%d; model not persisted", k.Dataset, k.Version)
	}
	if err := writeFileAtomic(filepath.Join(s.dir, rel), raw); err != nil {
		return err
	}
	entry := manifestModel{
		Dataset: k.Dataset, Version: k.Version, Algorithm: k.Algorithm,
		Params: manifestParamsOf(k.Params), File: rel,
	}
	// Re-persisting an existing key (a refit after eviction) moves it to
	// the tail: the list stays in persist-recency order, which the warm
	// load relies on when trimming to cache capacity.
	for i, e := range s.m.Models {
		if e.key() == k {
			s.m.Models = append(s.m.Models[:i], s.m.Models[i+1:]...)
			break
		}
	}
	s.m.Models = append(s.m.Models, entry)
	return s.saveManifestLocked()
}

// EnsureDataset rewrites the dataset snapshot unless one for exactly
// (name, version) is already on disk at its exact expected size. It is
// the self-heal hook behind idempotent re-uploads: a snapshot whose
// original save failed (full disk) or that was truncated or deleted
// since gets a second chance without bumping the version or discarding
// models. The health check is a stat, not a decode — the no-op re-upload
// path runs on every provisioning pass and must stay cheap; in-place bit
// rot is still caught by the CRC at the next restart, costing one refit.
func (s *Store) EnsureDataset(name string, version, epoch uint64, ds *geom.Dataset) error {
	// The codec is canonical, so the file size is exactly determined by
	// the name, shape and precision: container header + name + version +
	// epoch + n + dim + fingerprint + coordinates.
	width := 8
	if ds.Float32() {
		width = 4
	}
	wantSize := int64(headerSize + 4 + len(name) + 8 + 8 + 8 + 4 + 8 + width*ds.N*ds.Dim)
	s.mu.Lock()
	healthy := false
	for _, e := range s.m.Datasets {
		if e.Name == name && e.Version == version {
			fi, err := os.Stat(filepath.Join(s.dir, e.File))
			healthy = err == nil && fi.Size() == wantSize
			break
		}
	}
	s.mu.Unlock()
	if healthy {
		return nil
	}
	return s.SaveDataset(name, version, epoch, ds)
}

// RestoreOwned reads and decodes every manifest entry whose dataset the
// owns filter accepts (nil accepts everything): datasets and models,
// each list in manifest order — for models that is persist order,
// oldest first. Anything missing, truncated, corrupt, or holding another
// name, version or key than its manifest entry is logged and skipped; a
// damaged snapshot costs one refit, never a failed startup. Pairing
// models with their dataset (version and fingerprint) and rebuilding
// them is the caller's job.
// Filtered-out snapshots are not even read and stay on disk untouched:
// it is the ring-rebalance hook — a shard that starts owning a key
// warm-loads it with zero refits, and ownership can come back cheaply.
func (s *Store) RestoreOwned(owns func(dataset string) bool) (datasets []*DatasetSnapshot, models []*ModelSnapshot) {
	s.mu.Lock()
	m := manifestFile{
		Datasets: slices.Clone(s.m.Datasets),
		Models:   slices.Clone(s.m.Models),
	}
	s.mu.Unlock()

	// A filtered-out entry is not damage, so it gets no log line.
	owned := func(name string) bool { return owns == nil || owns(name) }
	for _, e := range m.Datasets {
		if !owned(e.Name) {
			continue
		}
		snap, err := s.readDataset(e)
		if err != nil {
			s.logf("persist: skipping dataset %q: %v", e.Name, err)
			continue
		}
		datasets = append(datasets, snap)
	}
	for _, e := range m.Models {
		if !owned(e.Dataset) {
			continue
		}
		snap, err := s.readModel(e)
		if err != nil {
			s.logf("persist: skipping model %s/%s: %v", e.Dataset, e.Algorithm, err)
			continue
		}
		models = append(models, snap)
	}
	return datasets, models
}

func (s *Store) readDataset(e manifestDataset) (*DatasetSnapshot, error) {
	v, err := s.readSnapshot(e.File)
	if err != nil {
		return nil, err
	}
	snap, ok := v.(*DatasetSnapshot)
	if !ok {
		return nil, fmt.Errorf("file holds a %T, want a dataset snapshot", v)
	}
	if snap.Name != e.Name || snap.Version != e.Version {
		return nil, fmt.Errorf("file holds %q v%d, manifest expects %q v%d", snap.Name, snap.Version, e.Name, e.Version)
	}
	if err := snap.Points.Validate(); err != nil {
		return nil, err
	}
	return snap, nil
}

func (s *Store) readModel(e manifestModel) (*ModelSnapshot, error) {
	v, err := s.readSnapshot(e.File)
	if err != nil {
		return nil, err
	}
	snap, ok := v.(*ModelSnapshot)
	if !ok {
		return nil, fmt.Errorf("file holds a %T, want a model snapshot", v)
	}
	if snap.Key != e.key() {
		return nil, fmt.Errorf("file holds key %+v, manifest expects %+v", snap.Key, e.key())
	}
	return snap, nil
}

func (s *Store) readSnapshot(rel string) (any, error) {
	raw, err := os.ReadFile(filepath.Join(s.dir, rel))
	if err != nil {
		return nil, err
	}
	return DecodeSnapshot(raw)
}

func (s *Store) saveManifestLocked() error {
	raw, err := json.MarshalIndent(s.m, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(s.dir, manifestName), append(raw, '\n'))
}

// writeFileAtomic writes via a temp file in the target directory, fsyncs,
// and renames into place, so readers only ever see complete files and a
// crash mid-write leaves the previous version intact.
func writeFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return nil
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}
