package service

import (
	"fmt"

	"repro/api"
	"repro/internal/core"
	"repro/internal/densindex"
	"repro/internal/persist"
)

// Replication is snapshot shipping, not consensus: fitted models are
// immutable and datasets are versioned, so the primary for a key simply
// encodes the same persist snapshot images it writes to its own disk and
// POSTs them to the key's replicas, which install them as warm state.
// An install is exactly a restart warm-load — the kd-tree is rebuilt,
// the clustering is not re-run — so replica state never costs a refit
// and never counts as a cache miss. Installs are idempotent and
// version-ordered, which makes re-shipping after membership changes (the
// router's self-heal pass) safe to do eagerly.

// snapshotContentType is the media type of a shipped snapshot image: the
// DPS1 container from internal/persist, byte-identical to the on-disk
// snapshot files.
const snapshotContentType = "application/x-dpc-snapshot"

// InstallSnapshot decodes one shipped snapshot image (dataset or model)
// and installs it as warm local state, exactly as a restart warm-load
// would: no refit, no cache miss. Stale ships — an older dataset
// version, a model for a version no longer resident — are refused or
// no-oped rather than regressing local state, so replays from a lagging
// primary are harmless.
func (s *Service) InstallSnapshot(raw []byte) (api.InstallResult, error) {
	snap, err := persist.DecodeSnapshot(raw)
	if err != nil {
		return api.InstallResult{}, fmt.Errorf("service: decoding shipped snapshot: %w", err)
	}
	switch sn := snap.(type) {
	case *persist.DatasetSnapshot:
		return s.installDataset(sn)
	case *persist.ModelSnapshot:
		return s.installModel(sn)
	case *persist.IndexSnapshot:
		return s.installIndex(sn)
	default:
		return api.InstallResult{}, fmt.Errorf("service: unknown snapshot type %T", snap)
	}
}

// installDataset registers a shipped dataset unless an equal-or-newer
// version is already resident. Versions are assigned by the key's
// primary and travel with every snapshot, so replicas order ships
// without any clock. A fresh install purges cached models of older
// versions, mirroring PutDataset.
func (s *Service) installDataset(sn *persist.DatasetSnapshot) (api.InstallResult, error) {
	res := api.InstallResult{Kind: "dataset", Dataset: sn.Name, Version: sn.Version}
	s.mu.Lock()
	if old, ok := s.datasets[sn.Name]; ok && old.version >= sn.Version {
		s.mu.Unlock()
		if s.store != nil && old.version == sn.Version {
			// Same self-heal opportunity as an idempotent re-upload: if this
			// version's snapshot never made it to disk, write it now.
			if err := s.store.EnsureDataset(sn.Name, sn.Version, sn.Points); err != nil {
				s.persistErrors.Add(1)
				s.store.Log("service: re-persisting replicated dataset %q v%d: %v", sn.Name, sn.Version, err)
			}
		}
		return res, nil
	}
	s.datasets[sn.Name] = &datasetEntry{points: sn.Points, version: sn.Version}
	s.mu.Unlock()
	s.cache.purgeStale(sn.Name, sn.Version)
	res.Installed = true
	s.datasetsReplicated.Add(1)
	if s.store != nil {
		if err := s.store.SaveDataset(sn.Name, sn.Version, sn.Points); err != nil {
			s.persistErrors.Add(1)
			s.store.Log("service: persisting replicated dataset %q v%d: %v", sn.Name, sn.Version, err)
		}
	}
	return res, nil
}

// installModel rebuilds a shipped model against the resident dataset and
// puts it in the cache as a completed entry. The dataset must already be
// resident at the snapshot's exact version with a matching fingerprint —
// the primary always ships the dataset before its models, so a mismatch
// means the ship is stale and is an error the primary's counters surface.
func (s *Service) installModel(sn *persist.ModelSnapshot) (api.InstallResult, error) {
	res := api.InstallResult{Kind: "model", Dataset: sn.Key.Dataset, Version: sn.Key.Version}
	s.mu.RLock()
	e, ok := s.datasets[sn.Key.Dataset]
	s.mu.RUnlock()
	if !ok {
		return res, fmt.Errorf("service: model snapshot for absent dataset %q", sn.Key.Dataset)
	}
	if e.version != sn.Key.Version {
		return res, fmt.Errorf("service: model snapshot for %q v%d but resident version is v%d",
			sn.Key.Dataset, sn.Key.Version, e.version)
	}
	if e.points.Fingerprint() != sn.DatasetFingerprint {
		return res, fmt.Errorf("service: model snapshot for %q v%d fitted on different points (fingerprint mismatch)",
			sn.Key.Dataset, sn.Key.Version)
	}
	key := s.restoredKey(sn.Key)
	if s.cache.has(key) {
		return res, nil
	}
	m, err := core.Restore(sn.Key.Algorithm, e.points, sn.Result, key.params, sn.FitTime, nil)
	if err != nil {
		return res, fmt.Errorf("service: rebuilding replicated model %s/%s: %w", sn.Key.Dataset, sn.Key.Algorithm, err)
	}
	if !s.cache.put(key, m) {
		return res, nil // a concurrent install or fit won the race
	}
	res.Installed = true
	s.modelsReplicated.Add(1)
	if s.store != nil {
		if err := s.store.SaveModel(sn.Key, m); err != nil {
			s.persistErrors.Add(1)
			s.store.Log("service: persisting replicated model %s/%s: %v", sn.Key.Dataset, sn.Key.Algorithm, err)
		}
	}
	return res, nil
}

// installIndex adopts a shipped density-index snapshot as warm state,
// the same way restart warm-loading does. The primary ships its index
// alongside dataset and model snapshots once a build completes, so a
// promoted replica answers decision-graph and sweep requests without
// re-paying the build; a replica that never received one still rebuilds
// on demand. Mismatched dataset version or fingerprint is a stale
// ship — refused.
func (s *Service) installIndex(sn *persist.IndexSnapshot) (api.InstallResult, error) {
	res := api.InstallResult{Kind: "index", Dataset: sn.Dataset, Version: sn.Version}
	s.mu.RLock()
	e, ok := s.datasets[sn.Dataset]
	s.mu.RUnlock()
	if !ok {
		return res, fmt.Errorf("service: index snapshot for absent dataset %q", sn.Dataset)
	}
	if e.version != sn.Version {
		return res, fmt.Errorf("service: index snapshot for %q v%d but resident version is v%d",
			sn.Dataset, sn.Version, e.version)
	}
	if e.points.Fingerprint() != sn.DatasetFingerprint {
		return res, fmt.Errorf("service: index snapshot for %q v%d built on different points (fingerprint mismatch)",
			sn.Dataset, sn.Version)
	}
	idx, err := densindex.FromParts(e.points, sn.DCutMax, sn.Start, sn.IDs, sn.Sq)
	if err != nil {
		return res, fmt.Errorf("service: rebuilding shipped index for %q: %w", sn.Dataset, err)
	}
	if !s.adoptIndex(sn.Dataset, sn.Version, idx) {
		return res, nil // a resident index already covers at least this ceiling
	}
	res.Installed = true
	return res, nil
}

// ReplicationSnapshots encodes everything a replica needs for one
// resident dataset: the dataset snapshot first (installs must see it
// before any model or index), then one model snapshot per completed
// cache entry fitted on the current version, then — when a density
// index for the current version is resident and ready — that index's
// snapshot, so a promoted replica serves decision-graph and sweep
// requests without re-paying the build. nil when the dataset is not
// resident. In-flight fits and builds are skipped — they ship when they
// finish via the router's post-write replication.
func (s *Service) ReplicationSnapshots(name string) [][]byte {
	s.mu.RLock()
	e, ok := s.datasets[name]
	s.mu.RUnlock()
	if !ok {
		return nil
	}
	out := [][]byte{persist.EncodeDataset(name, e.version, e.points)}
	fp := e.points.Fingerprint()
	for _, cm := range s.cache.completed(name, e.version) {
		pk := persist.ModelKey{
			Dataset:   cm.key.dataset,
			Version:   cm.key.version,
			Algorithm: cm.key.algorithm,
			Params:    cm.key.params,
		}
		// Thread count is host policy, not model identity — zeroed on the
		// wire exactly as SaveModel zeroes it on disk.
		pk.Params.Workers = 0
		out = append(out, persist.EncodeModel(pk, fp, cm.model.FitTime(), cm.model.Result()))
	}
	if raw := s.indexSnapshot(name, e.version, fp); raw != nil {
		out = append(out, raw)
	}
	return out
}

// indexSnapshot encodes the dataset's resident density index when it is
// ready and built on exactly this version; nil otherwise (absent, in
// flight, failed, or stale — a replica rebuilds on demand in those
// cases, as before).
func (s *Service) indexSnapshot(name string, version uint64, fingerprint uint64) []byte {
	s.indexMu.Lock()
	ent := s.indexes[name]
	s.indexMu.Unlock()
	if ent == nil || ent.version != version {
		return nil
	}
	select {
	case <-ent.ready:
	default:
		return nil
	}
	if ent.err != nil || ent.idx == nil {
		return nil
	}
	dcMax, start, ids, sq := ent.idx.Parts()
	return persist.EncodeIndex(&persist.IndexSnapshot{
		Dataset: name, Version: version,
		DatasetFingerprint: fingerprint,
		DCutMax:            dcMax, Start: start, IDs: ids, Sq: sq,
	})
}

// completedModel is one snapshot-able cache entry.
type completedModel struct {
	key   modelKey
	model *core.Model
}

// completed returns the cache's finished, successful entries for one
// dataset version. In-flight and failed entries are excluded.
func (c *modelCache) completed(name string, version uint64) []completedModel {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []completedModel
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if e.key.dataset != name || e.key.version != version {
			continue
		}
		select {
		case <-e.ready:
		default:
			continue // still fitting
		}
		if e.err != nil || e.model == nil {
			continue
		}
		out = append(out, completedModel{key: e.key, model: e.model})
	}
	return out
}

// has reports whether key is present (completed or in flight) without
// touching LRU order or hit counters.
func (c *modelCache) has(key modelKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}
