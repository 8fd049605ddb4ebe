package service

import (
	"fmt"

	"repro/api"
	"repro/internal/core"
	"repro/internal/kdtree"
	"repro/internal/persist"
)

// Warm state comes from snapshots, never from a refit: a dataset or a
// fitted model (its Result; the kd-tree is rebuilt), each in the persist
// snapshot format. Restart (New), ring rebalance (Reconcile) and
// replication (InstallSnapshot) all pass every snapshot, datasets first,
// then models, through the one installer per kind below; only the
// snapshot's source differs. A density index is derived state: it is
// never written or shipped, and the first decision-graph or sweep
// request after a restart or a promotion rebuilds it from its dataset.
// Replication is snapshot shipping, not consensus: fitted models are
// immutable and datasets are versioned, so the primary for a key
// encodes the same images it writes to its own disk and POSTs them to
// the key's replicas. Installs never count as cache misses, and they are
// idempotent and version-ordered, which makes re-shipping after
// membership changes (the router's self-heal pass) safe to do eagerly.

// snapshotContentType is the media type of a shipped snapshot image: the
// DPS1 container from internal/persist, byte-identical to the on-disk
// snapshot files.
const snapshotContentType = "application/x-dpc-snapshot"

// snapshotSource is where a snapshot being installed came from. It
// decides three things only: which counter an install moves (restored
// or replicated), whether the install is persisted again, and who wins
// a dataset conflict.
type snapshotSource uint8

const (
	// fromDisk is this node's own snapshot directory (restart or
	// rebalance). The snapshot is already on disk, and any resident
	// dataset entry wins over it: an upload racing a reconcile keeps
	// its points.
	fromDisk snapshotSource = iota
	// fromPrimary is a key's primary shipping to its replicas. The
	// install is persisted locally, and the newer dataset version wins.
	fromPrimary
)

// InstallSnapshot decodes one shipped snapshot image (dataset or model)
// and installs it as warm local state. Stale ships — an older dataset
// version, a model for a version no longer resident — are refused or
// no-oped rather than regressing local state, so replays from a lagging
// primary are harmless. An index image from an older peer (kind 3) is
// refused as an unknown kind.
func (s *Service) InstallSnapshot(raw []byte) (api.InstallResult, error) {
	snap, err := persist.DecodeSnapshot(raw)
	if err != nil {
		return api.InstallResult{}, fmt.Errorf("service: decoding shipped snapshot: %w", err)
	}
	switch sn := snap.(type) {
	case *persist.DatasetSnapshot:
		return s.installDataset(sn, fromPrimary)
	case *persist.ModelSnapshot:
		return s.installModel(sn, fromPrimary)
	default:
		return api.InstallResult{}, fmt.Errorf("service: unknown snapshot type %T", snap)
	}
}

// warmLoad installs the snapshots persist read from this node's own
// store, in install order, and reports how many datasets and models
// landed. A snapshot the installer refuses (its dataset was damaged or
// has moved on) is logged and skipped: it costs one refit on demand,
// never a failed startup.
func (s *Service) warmLoad(dss []*persist.DatasetSnapshot, models []*persist.ModelSnapshot) (datasetsLoaded, modelsLoaded int) {
	landed := func(res api.InstallResult, err error) bool {
		if err != nil {
			s.store.Log("service: skipping %s %s v%d: %v", res.Kind, res.Dataset, res.Version, err)
		}
		return res.Installed
	}
	for _, sn := range dss {
		if landed(s.installDataset(sn, fromDisk)) {
			datasetsLoaded++
		}
	}
	for _, sn := range models {
		if landed(s.installModel(sn, fromDisk)) {
			modelsLoaded++
		}
	}
	return datasetsLoaded, modelsLoaded
}

// installDataset registers a snapshot's dataset version. From disk it
// yields to any resident entry; from a primary it lands unless an
// equal-or-newer version is resident — versions are assigned by the
// key's primary and travel with every snapshot, so replicas order ships
// without any clock. A fresh install retires the entry it replaces, as
// PutDataset does, which takes that version's cached models and density
// index with it. The install continues the resident upload history — its
// drift lineages keep serving, as after a local append — only when the
// snapshot carries the resident epoch; otherwise the ship replaced the
// dataset, and the install starts a new history.
func (s *Service) installDataset(sn *persist.DatasetSnapshot, src snapshotSource) (api.InstallResult, error) {
	res := api.InstallResult{Kind: "dataset", Dataset: sn.Name, Version: sn.Version}
	s.mu.Lock()
	old, ok := s.datasets[sn.Name]
	if ok && (src == fromDisk || old.version >= sn.Version) {
		s.mu.Unlock()
		if src == fromPrimary && s.store != nil && old.version == sn.Version {
			// Same self-heal opportunity as an idempotent re-upload: if this
			// version's snapshot never made it to disk, write it now.
			if err := s.store.EnsureDataset(sn.Name, sn.Version, sn.Epoch, sn.Points); err != nil {
				s.persistErrors.Add(1)
				s.store.Log("service: re-persisting replicated dataset %q v%d: %v", sn.Name, sn.Version, err)
			}
		}
		return res, nil
	}
	e := &datasetEntry{points: sn.Points, version: sn.Version, epoch: sn.Epoch, drifts: &lineages{}}
	if ok && old.epoch == sn.Epoch {
		e.drifts = old.drifts
	}
	e.fpOnce.Do(func() { e.fp = sn.Fingerprint })
	s.setDatasetLocked(sn.Name, e)
	s.mu.Unlock()
	res.Installed = true
	if src == fromDisk {
		s.datasetsRestored.Add(1)
		return res, nil
	}
	s.datasetsReplicated.Add(1)
	if s.store != nil {
		if err := s.store.SaveDataset(sn.Name, sn.Version, sn.Epoch, sn.Points); err != nil {
			s.persistErrors.Add(1)
			s.store.Log("service: persisting replicated dataset %q v%d: %v", sn.Name, sn.Version, err)
		}
	}
	return res, nil
}

// installModel rebuilds a model snapshot against its resident dataset —
// core.Restore re-derives only the assigner's kd-tree, sharing the
// dataset's resident index tree when one is built — and puts it in the
// dataset entry's model slots as a completed model. The dataset must be
// resident at the snapshot's exact version and hold the very points the
// model was fitted on: installs run datasets first, so anything else
// means the snapshot is stale (or its dataset snapshot was lost) and is
// refused.
func (s *Service) installModel(sn *persist.ModelSnapshot, src snapshotSource) (api.InstallResult, error) {
	name, version := sn.Key.Dataset, sn.Key.Version
	res := api.InstallResult{Kind: "model", Dataset: name, Version: version}
	s.mu.RLock()
	e, ok := s.datasets[name]
	s.mu.RUnlock()
	switch {
	case !ok:
		return res, fmt.Errorf("service: model snapshot for absent dataset %q", name)
	case e.version != version:
		return res, fmt.Errorf("service: model snapshot for %q v%d but resident version is v%d", name, version, e.version)
	case e.fingerprint() != sn.DatasetFingerprint:
		return res, fmt.Errorf("service: model snapshot for %q v%d computed on different points (fingerprint mismatch)", name, version)
	}
	// Workers is zeroed in the snapshot; in memory it is this host's policy.
	key := modelKey{algorithm: sn.Key.Algorithm, params: s.normalize(sn.Key.Algorithm, sn.Key.Params)}
	m, installed, err := s.cache.put(e, key, func() (*core.Model, error) {
		var tree *kdtree.Tree
		if idx, ok := e.residentIndex(0); ok {
			tree = idx.Tree()
		}
		return core.Restore(sn.Key.Algorithm, e.points, sn.Result, key.params, sn.FitTime, tree)
	})
	if err != nil {
		return res, fmt.Errorf("service: rebuilding model %s/%s: %w", name, sn.Key.Algorithm, err)
	}
	if !installed {
		return res, nil // already resident, or the version was replaced meanwhile
	}
	res.Installed = true
	if src == fromDisk {
		s.modelsRestored.Add(1)
		return res, nil
	}
	s.modelsReplicated.Add(1)
	if s.store != nil {
		if err := s.store.SaveModel(sn.Key, m); err != nil {
			s.persistErrors.Add(1)
			s.store.Log("service: persisting replicated model %s/%s: %v", name, sn.Key.Algorithm, err)
		}
	}
	return res, nil
}

// ReplicationSnapshots encodes everything a replica needs for one
// resident dataset, in install order: the dataset snapshot, then one
// model snapshot per completed model of the current version's entry.
// nil when the dataset is not resident. In-flight fits are skipped —
// they ship when they finish via the router's post-write replication.
func (s *Service) ReplicationSnapshots(name string) [][]byte {
	s.mu.RLock()
	e, ok := s.datasets[name]
	s.mu.RUnlock()
	if !ok {
		return nil
	}
	out := [][]byte{persist.EncodeDataset(name, e.version, e.epoch, e.points)}
	for _, cm := range s.cache.fitted(e) {
		// Thread count is host policy, not model identity — zeroed on the
		// wire exactly as SaveModel zeroes it on disk.
		pk := persist.ModelKey{Dataset: name, Version: e.version, Algorithm: cm.key.algorithm, Params: cm.key.params}
		pk.Params.Workers = 0
		out = append(out, persist.EncodeModel(pk, e.fingerprint(), cm.model.FitTime(), cm.model.Result()))
	}
	return out
}
