package service

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/api"
	"repro/internal/core"
	"repro/internal/densindex"
	"repro/internal/drift"
	"repro/internal/geom"
)

// The drift subsystem converts the serving layer from fit-once-static
// to continuously self-correcting. With Options.Drift set, every batch
// and stream assign also feeds a per-model drift.Tracker (one lock per
// chunk, O(1) per point); when a tracker trips — the observed
// distance-to-center distribution or halo rate has left the fit-time
// reference — a single-flight background refit runs on the current
// dataset version while the old model keeps serving every in-flight
// and new request. The finished fit is published with one atomic
// pointer swap; streams that started on the old model finish on it.
//
// driftState pins the model it serves independently of the LRU cache,
// so neither eviction nor the retirement of the version a sliding-window
// append replaces can yank a model out from under live traffic. The
// lineages belong to one upload history and hang on its registry entries
// (see datasetEntry.drifts): an append carries them to the new version, a
// replacement or an eviction drops them with the entry. A lineage is
// keyed by its modelKey but NOT the dataset version — the whole point is
// to span version advances until a refit lands.

// lineages is the drift lineage set of one upload history.
type lineages struct {
	mu sync.Mutex
	m  map[modelKey]*driftState
}

// driftState is the serving state of one tracked model lineage.
type driftState struct {
	key     modelKey
	dataset string
	set     *lineages // the history the lineage belongs to

	mu            sync.Mutex
	served        *core.Model
	servedVersion uint64
	tracker       *drift.Tracker
	refitting     bool
	lastRefit     time.Time
}

// driftObs carries the observation target through one request: the
// tracker captured when the request resolved its model, plus the state
// for trip handling. A stream holds one driftObs for its whole life, so
// its observations stay paired with the model that produced them even
// if a refit swaps the state mid-stream.
type driftObs struct {
	st      *driftState
	tracker *drift.Tracker
}

// driftStatesCap bounds one upload history's lineage set; each lineage
// pins one model. Scaled to the cache so drift pinning can never hold
// more than a few multiples of what the LRU already budgets.
func (s *Service) driftStatesCap() int {
	c := 4 * s.opts.cacheSize()
	if c < 32 {
		c = 32
	}
	return c
}

// state returns (creating if needed) the set's lineage for key. A full
// set first drops one idle (not refitting) lineage, which restarts cold
// on its next touch.
func (l *lineages) state(dataset string, key modelKey, limit int) *driftState {
	l.mu.Lock()
	defer l.mu.Unlock()
	if st, ok := l.m[key]; ok {
		return st
	}
	if l.m == nil {
		l.m = make(map[modelKey]*driftState)
	}
	if len(l.m) >= limit {
		for k, old := range l.m {
			old.mu.Lock()
			busy := old.refitting
			old.mu.Unlock()
			if busy {
				continue
			}
			delete(l.m, k)
			break
		}
	}
	st := &driftState{key: key, dataset: dataset, set: l}
	l.m[key] = st
	return st
}

// states returns the set's lineages.
func (l *lineages) states() []*driftState {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*driftState, 0, len(l.m))
	for _, st := range l.m {
		out = append(out, st)
	}
	return out
}

// SetDriftHooks wires ring-mode coordination into the drift subsystem:
// primary gates background refits to the dataset's primary owner
// (replicas stale-serve until the refitted model arrives by snapshot
// shipping — they never refit), and onRefit fires after a refit swaps
// in a new model so the router can ship it to the replicas. Either may
// be nil (single-instance mode: always primary, nothing to ship).
func (s *Service) SetDriftHooks(primary func(dataset string) bool, onRefit func(dataset string)) {
	s.driftMu.Lock()
	s.driftPrimary, s.onDriftRefit = primary, onRefit
	s.driftMu.Unlock()
}

func (s *Service) driftHooks() (primary func(string) bool, onRefit func(string)) {
	s.driftMu.Lock()
	defer s.driftMu.Unlock()
	return s.driftPrimary, s.onDriftRefit
}

// serveFit resolves the model for an assign-path request. With drift
// disabled it is exactly Fit. With drift enabled it consults the
// lineage state first:
//
//   - served model at the current dataset version: serve it (the Fit
//     call is the usual cache hit and keeps every counter honest);
//   - version advanced (append, window expiry, replication install): a
//     ready model for the new version is adopted from the cache without
//     fitting; otherwise the pinned old model keeps serving — and if
//     the tracker has tripped, a background refit is (re)kicked;
//   - nothing served yet: a synchronous fit of the version read, as
//     before drift existed, pinned as the lineage's model.
//
// The lineage comes from the registry entry read, so a replaced
// dataset's lineages are never consulted. Explicit POST /v1/fit keeps its
// synchronous semantics by calling Fit directly; only the assign paths
// serve stale.
func (s *Service) serveFit(dataset, algorithm string, p core.Params) (FitResult, *driftObs, error) {
	cfg := s.opts.Drift
	if cfg == nil {
		fr, err := s.Fit(dataset, algorithm, p)
		return fr, nil, err
	}
	alg, ok := core.AlgorithmByName(algorithm)
	if !ok {
		return FitResult{}, nil, fmt.Errorf("service: unknown algorithm %q", algorithm)
	}
	p = s.normalize(algorithm, p)
	if err := p.Validate(); err != nil {
		return FitResult{}, nil, err
	}
	s.mu.RLock()
	e, ok := s.datasets[dataset]
	s.mu.RUnlock()
	if !ok {
		return FitResult{}, nil, fmt.Errorf("service: unknown dataset %q", dataset)
	}
	v := e.version
	key := modelKey{algorithm: algorithm, params: p}
	st := e.drifts.state(dataset, key, s.driftStatesCap())

	st.mu.Lock()
	served, servedV, tracker := st.served, st.servedVersion, st.tracker
	st.mu.Unlock()
	if s.versionChecked != nil {
		s.versionChecked()
	}

	switch {
	case served != nil && servedV == v:
		// The dataset moved on since the version check (an append also
		// retires v's models): the pin is stale, so take the version-advanced
		// path rather than refitting v on the read path.
		if cur, ok := s.currentVersion(dataset); !ok || cur != v {
			return s.serveFit(dataset, algorithm, p)
		}

	case served != nil: // version advanced past the pinned model
		if m, ok := s.cache.peekReady(e, key); ok {
			// The new version's model is already resident (shipped to this
			// replica, or fitted by an explicit /v1/fit): atomic adopt, no
			// fit, no stale serve.
			tracker = s.publish(st, m, v)
			s.fitRequests.Add(1)
			s.cache.hits.Add(1)
			return FitResult{Model: m, CacheHit: true}, &driftObs{st: st, tracker: tracker}, nil
		}
		s.fitRequests.Add(1)
		s.cache.hits.Add(1)
		s.driftStaleServes.Add(1)
		if tracker != nil && tracker.Tripped() {
			s.kickRefit(st, tracker)
		}
		return FitResult{Model: served, CacheHit: true}, &driftObs{st: st, tracker: tracker}, nil
	}
	// Fit the entry that was read, not a re-read of the registry: a later
	// append must never make this read fit (and pin as v) a newer version.
	s.fitRequests.Add(1)
	fr, err := s.fitEntry(dataset, e, alg, p)
	if err != nil {
		return FitResult{}, nil, err
	}
	if fr.Model != served {
		// Nothing served yet, or evicted and refit at the same version:
		// (re-)pin and restart tracking (the reference is deterministic,
		// only counters reset).
		tracker = s.publish(st, fr.Model, v)
	}
	return fr, &driftObs{st: st, tracker: tracker}, nil
}

// currentVersion returns the registry version of a dataset.
func (s *Service) currentVersion(name string) (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.datasets[name]
	if !ok {
		return 0, false
	}
	return e.version, true
}

// lineageEntry returns the dataset's registry entry and whether it still
// holds st's lineage set — false once the history was replaced or
// evicted.
func (s *Service) lineageEntry(st *driftState) (*datasetEntry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.datasets[st.dataset]
	return e, ok && e.drifts == st.set
}

// publish pins m as the lineage's served model and starts a fresh
// tracker against m's fit-time reference. Idempotent on the same model,
// and a lineage never moves back: a model of an older version than the
// pinned one (a slow request racing an append) is not pinned. Returns
// the current tracker.
func (s *Service) publish(st *driftState, m *core.Model, version uint64) *drift.Tracker {
	cfg := s.opts.Drift
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.served == m || version < st.servedVersion {
		return st.tracker
	}
	ref := drift.NewReference(m.ReferenceDists(cfg.RefSample()))
	st.served = m
	st.servedVersion = version
	st.tracker = drift.NewTracker(*cfg, ref)
	return st.tracker
}

// kickRefit starts the single-flight background refit for a tripped
// lineage, unless one is already running, the cooldown has not elapsed,
// or this instance is not the dataset's primary (replicas receive the
// refitted model by snapshot shipping instead). tr must be the tracker
// whose trip motivated the kick — a retired tracker (its model was
// already swapped) kicks nothing.
func (s *Service) kickRefit(st *driftState, tr *drift.Tracker) {
	primary, _ := s.driftHooks()
	st.mu.Lock()
	if tr == nil || st.tracker != tr || st.refitting {
		st.mu.Unlock()
		return
	}
	if !st.lastRefit.IsZero() && time.Since(st.lastRefit) < s.opts.Drift.RefitCooldown() {
		st.mu.Unlock()
		return
	}
	if primary != nil && !primary(st.dataset) {
		st.mu.Unlock()
		return
	}
	st.refitting = true
	st.lastRefit = time.Now()
	st.mu.Unlock()
	go s.runRefit(st)
}

// runRefit performs one background refit of the lineage's current
// dataset version and publishes the result. The fit goes through the
// normal single-flight cache path, so a concurrent explicit /v1/fit and
// the refit share one ClusterDataset pass. A model whose history was
// replaced or evicted meanwhile is discarded: the lineage is retired.
func (s *Service) runRefit(st *driftState) {
	var fr FitResult
	var err error
	e, live := s.lineageEntry(st)
	if live {
		alg, _ := core.AlgorithmByName(st.key.algorithm)
		s.fitRequests.Add(1)
		fr, err = s.fitEntry(st.dataset, e, alg, st.key.params)
		_, live = s.lineageEntry(st)
	}
	swapped := false
	st.mu.Lock()
	st.refitting = false
	if live && err == nil && fr.Model != st.served && e.version >= st.servedVersion {
		cfg := s.opts.Drift
		ref := drift.NewReference(fr.Model.ReferenceDists(cfg.RefSample()))
		st.served = fr.Model
		st.servedVersion = e.version
		st.tracker = drift.NewTracker(*cfg, ref)
		swapped = true
	}
	st.mu.Unlock()
	if err != nil {
		if s.store != nil {
			s.store.Log("service: drift refit %s/%s: %v", st.dataset, st.key.algorithm, err)
		}
		return
	}
	if swapped {
		s.driftRefits.Add(1)
		if _, onRefit := s.driftHooks(); onRefit != nil {
			// Ship the refitted model to the replicas so they swap by
			// warm-load, never by refitting.
			onRefit(st.dataset)
		}
	}
}

// Drift reports the drift status of every tracked model lineage of a
// dataset (GET /v1/drift), optionally filtered to one algorithm. The
// dataset must be registered; an empty Models list means no assign
// traffic has been tracked yet.
func (s *Service) Drift(dataset, algorithm string) (*api.DriftResponse, error) {
	s.mu.RLock()
	e, ok := s.datasets[dataset]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("service: unknown dataset %q", dataset)
	}
	resp := &api.DriftResponse{Dataset: dataset, Enabled: s.opts.Drift != nil}
	if !resp.Enabled {
		return resp, nil
	}
	for _, st := range e.drifts.states() {
		if algorithm != "" && st.key.algorithm != algorithm {
			continue
		}
		st.mu.Lock()
		m := api.DriftModel{
			Algorithm: st.key.algorithm,
			Params:    wireParams(st.key.params),
			Version:   st.servedVersion,
			Refitting: st.refitting,
		}
		tracker := st.tracker
		st.mu.Unlock()
		if tracker != nil {
			m.Status = wireDriftStatus(tracker.Status())
		}
		resp.Models = append(resp.Models, m)
	}
	sort.Slice(resp.Models, func(a, b int) bool {
		if resp.Models[a].Algorithm != resp.Models[b].Algorithm {
			return resp.Models[a].Algorithm < resp.Models[b].Algorithm
		}
		return resp.Models[a].Params.DCut < resp.Models[b].Params.DCut
	})
	return resp, nil
}

// wireDriftStatus converts a tracker snapshot into its wire shape.
func wireDriftStatus(st drift.Status) *api.DriftStatus {
	out := &api.DriftStatus{
		Observed: st.Observed,
		Halo:     st.Halo,
		HaloRate: st.HaloRate,
		Q50:      st.Q50,
		Q90:      st.Q90,
		Score:    st.Score,
		Tripped:  st.Tripped,
		Reference: api.DriftReference{
			Q50: st.Reference.Q50, Q90: st.Reference.Q90,
			HaloRate: st.Reference.HaloRate, N: st.Reference.N,
		},
	}
	for _, w := range st.Windows {
		out.Windows = append(out.Windows, api.DriftWindow{
			Count: w.Count, Halo: w.Halo, HaloRate: w.HaloRate,
			Q50: w.Q50, Q90: w.Q90, Score: w.Score,
		})
	}
	return out
}

// driftScore returns the maximum live drift score across tracked
// lineages — the single-gauge summary Stats carries — and their count.
func (s *Service) driftScore() (score float64, models int) {
	var states []*driftState
	s.mu.RLock()
	for _, e := range s.datasets {
		states = append(states, e.drifts.states()...)
	}
	s.mu.RUnlock()
	for _, st := range states {
		st.mu.Lock()
		tracker := st.tracker
		st.mu.Unlock()
		if tracker == nil {
			continue
		}
		if sc := tracker.Status().Score; sc > score {
			score = sc
		}
	}
	return score, len(states)
}

// AppendPoints appends pts to a registered dataset, expiring the oldest
// points past Options.Window (<= 0: unbounded), and advances the
// dataset version — the sliding-window mutation of POST /v1/points.
// The previous version's entry is retired, taking its cached models with
// it, but they keep serving through their drift pins until a refit
// lands: the new version carries the upload history's epoch and lineage
// set. When the old version's density index is ready, the new version is
// published with its densindex.Update already attached — expired edges
// filtered, appended points range-searched against the new version's
// whole-dataset kd-tree, which the updated index keeps for the refit's
// cut and its assigner — so no version is ever visible without the index
// it was derived with; otherwise the new version has none and the first
// request that needs one builds it. The appended rows are validated like
// an upload: rectangular, the dataset's dimensionality, no NaN/Inf.
func (s *Service) AppendPoints(name string, pts [][]float64) (api.AppendResponse, error) {
	if len(pts) == 0 {
		return api.AppendResponse{}, fmt.Errorf("service: append of zero points")
	}
	for {
		s.mu.RLock()
		e, ok := s.datasets[name]
		s.mu.RUnlock()
		if !ok {
			return api.AppendResponse{}, fmt.Errorf("service: unknown dataset %q", name)
		}
		old, oldVersion := e.points, e.version
		for i, p := range pts {
			if len(p) != old.Dim {
				return api.AppendResponse{}, fmt.Errorf("service: appended point %d has dimension %d, want %d", i, len(p), old.Dim)
			}
			for j, x := range p {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return api.AppendResponse{}, fmt.Errorf("service: appended point %d coordinate %d is %v", i, j, x)
				}
			}
		}
		// Window arithmetic: keep the newest Window points overall. A
		// window smaller than the append itself drops the append's own
		// head too.
		keepPts := pts
		total := old.N + len(pts)
		expire := 0
		if w := int(s.opts.Window); w > 0 && total > w {
			expire = total - w
			if expire > old.N {
				keepPts = pts[expire-old.N:]
				expire = old.N
			}
		}
		expired := expire + (len(pts) - len(keepPts))
		nds := appendDataset(old, expire, keepPts)
		newVersion := oldVersion + 1
		next := &datasetEntry{points: nds, version: newVersion, epoch: e.epoch, drifts: e.drifts}
		updated := false
		if idx, ok := e.residentIndex(0); ok {
			if up, err := densindex.Update(idx, nds, expire, len(keepPts), s.opts.Workers, indexMaxEdges); err == nil {
				ready := make(chan struct{})
				close(ready)
				next.idx = &indexEntry{dcMax: up.DCutMax(), ready: ready, idx: up}
				updated = true
			}
		}

		s.mu.Lock()
		cur, still := s.datasets[name]
		if !still || cur.version != oldVersion {
			s.mu.Unlock()
			continue // raced a replace/append; revalidate against the new entry
		}
		s.setDatasetLocked(name, next)
		s.mu.Unlock()

		s.pointsAppended.Add(int64(len(keepPts)))
		s.pointsExpired.Add(int64(expired))
		if updated {
			s.indexUpdates.Add(1)
		}
		if s.store != nil {
			if err := s.store.SaveDataset(name, newVersion, e.epoch, nds); err != nil {
				s.persistErrors.Add(1)
				s.store.Log("service: persisting dataset %q v%d: %v", name, newVersion, err)
			}
		}
		return api.AppendResponse{
			Dataset: name, N: nds.N, Dim: nds.Dim, Precision: nds.Precision(),
			Version: newVersion, Appended: len(keepPts), Expired: expired,
			IndexUpdated: updated,
		}, nil
	}
}

// appendDataset builds the post-append dataset: old rows [expire:] plus
// pts, in fresh backing arrays at the old precision (models keep
// references to the old arrays — datasets are frozen, so the append is
// copy-on-write).
func appendDataset(old *geom.Dataset, expire int, pts [][]float64) *geom.Dataset {
	kept := old.N - expire
	n := kept + len(pts)
	dim := old.Dim
	if old.Float32() {
		coords := make([]float32, 0, n*dim)
		coords = append(coords, old.Coords32[expire*dim:]...)
		for _, p := range pts {
			for _, x := range p {
				coords = append(coords, float32(x))
			}
		}
		return &geom.Dataset{Coords32: coords, N: n, Dim: dim}
	}
	coords := make([]float64, 0, n*dim)
	coords = append(coords, old.Coords[expire*dim:]...)
	for _, p := range pts {
		coords = append(coords, p...)
	}
	return &geom.Dataset{Coords: coords, N: n, Dim: dim}
}
