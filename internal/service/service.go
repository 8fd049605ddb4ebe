// Package service is the fit-once/assign-many serving layer behind cmd/dpcd:
// a named dataset registry whose entries (one per dataset version) hold
// their fitted core.Model instances keyed by (algorithm, params), with
// single-flight fit deduplication and one LRU bound across all versions,
// and request metrics. Heavy traffic for the same model pays one
// ClusterDataset pass; everything after that is O(log n) kd-tree
// assignment per point.
package service

import (
	"cmp"
	"container/list"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/api"
	"repro/internal/core"
	"repro/internal/densindex"
	"repro/internal/drift"
	"repro/internal/geom"
	"repro/internal/persist"
)

// Options configures a Service.
type Options struct {
	// CacheSize is the maximum number of fitted models kept; <= 0 means 8.
	CacheSize int
	// Workers is the worker count used for fits and batch assigns;
	// <= 0 means all CPUs. Request parameters cannot override it, so the
	// cache never holds duplicate models differing only in thread count.
	Workers int
	// Store, when non-nil, makes the service durable: datasets are
	// snapshotted on upload, models on fit completion, and New warm-loads
	// both so a restarted daemon serves previously fitted models with
	// zero refits. Persistence failures are logged and counted in Stats
	// but never fail the request — durability degrades, serving does not.
	Store *persist.Store
	// Owns, when non-nil, restricts the warm load to datasets the filter
	// accepts. Ring mode sets it to "this shard owns the key": snapshots
	// for keys owned elsewhere stay on disk, unloaded, so a later
	// membership change can Reconcile them back in with zero refits.
	Owns func(dataset string) bool
	// StreamChunk is the number of points labeled (and answered) per
	// response record on /v1/assign/stream; <= 0 scales it to Workers.
	// Memory per in-flight stream is O(StreamChunk), never O(stream).
	StreamChunk int
	// MaxStreams caps concurrent /v1/assign/stream requests; <= 0 means
	// 64. A request over the cap is refused up front (HTTP 429) rather
	// than queued: a stream holds its slot for its whole life, and
	// invisible queueing behind long streams is worse than an honest
	// retry signal.
	MaxStreams int
	// MaxStreamPoints caps the points one stream may submit; <= 0 means
	// 1<<30. The breach surfaces as the stream's terminal error record —
	// labels already emitted stay valid.
	MaxStreamPoints int64
	// Drift, when non-nil, enables assign-path drift tracking and
	// trip-triggered background refits with atomic model swap (see
	// internal/service/drift.go). Nil keeps the pre-drift behavior and
	// its zero per-point overhead.
	Drift *drift.Config
	// Window caps a dataset's point count across POST /v1/points
	// appends: once an append would exceed it, the oldest points expire
	// (sliding window). <= 0 means unbounded.
	Window int64
}

func (o Options) cacheSize() int {
	if o.CacheSize > 0 {
		return o.CacheSize
	}
	return 8
}

func (o Options) maxStreams() int {
	if o.MaxStreams > 0 {
		return o.MaxStreams
	}
	return 64
}

func (o Options) maxStreamPoints() int64 {
	if o.MaxStreamPoints > 0 {
		return o.MaxStreamPoints
	}
	return 1 << 30
}

// indexMaxEdges caps the stored entries of one dataset's density index
// (each costs 4 bytes, so ~128 MiB). A decision-graph or sweep request
// whose d_cut would exceed the budget fails with a clear error instead
// of exhausting memory.
const indexMaxEdges = 1 << 25

// Service owns the dataset registry and the model cache.
type Service struct {
	opts Options

	// versionChecked, when set, runs in serveFit between its dataset
	// version check and acting on it — a seam for forcing interleavings
	// in tests; nil otherwise.
	versionChecked func()

	mu       sync.RWMutex
	datasets map[string]*datasetEntry

	cache *modelCache

	// streamSem bounds concurrent label streams; each stream holds one
	// slot from just after its fit until it finishes.
	streamSem chan struct{}

	store *persist.Store
	// The restored counters are atomic, not plain ints guarded by mu:
	// ring reconciles bump them at runtime while fan-out /stats reads
	// them from another goroutine.
	datasetsRestored atomic.Int64
	modelsRestored   atomic.Int64
	persistErrors    atomic.Int64

	// Replica installs (snapshot shipping from a key's primary). Like the
	// restored counters these are warm-loads, never refits, and never
	// touch the cache hit/miss counters.
	datasetsReplicated atomic.Int64
	modelsReplicated   atomic.Int64

	fitRequests    atomic.Int64
	assignRequests atomic.Int64
	pointsAssigned atomic.Int64

	indexBuilds atomic.Int64
	indexCuts   atomic.Int64

	// Drift subsystem (see drift.go): the lineages live on their
	// dataset's registry entries; driftMu guards the two ring hooks.
	driftMu          sync.Mutex
	driftPrimary     func(dataset string) bool
	onDriftRefit     func(dataset string)
	driftTrips       atomic.Int64
	driftRefits      atomic.Int64
	driftStaleServes atomic.Int64
	pointsAppended   atomic.Int64
	pointsExpired    atomic.Int64
	indexUpdates     atomic.Int64
}

type datasetEntry struct {
	points *geom.Dataset
	// version increments on re-upload so cached models fitted on the old
	// points can never serve the new name.
	version uint64
	// epoch is the version of the upload this version descends from:
	// PutDataset sets it to the version and an append copies it, so a
	// shipped version with the resident epoch is a slide of the resident
	// history, and one with another epoch replaced it.
	epoch uint64
	// drifts is the drift lineage set of the upload history: every
	// version an append derives from one upload shares it, so a pinned
	// model keeps serving across slides, and a replacement or an
	// eviction retires the set with its entry.
	drifts *lineages
	// fp caches points.Fingerprint(), which hashes every coordinate:
	// each snapshot install and every replication ship checks or encodes
	// it. A dataset installed from a snapshot takes the snapshot's.
	fpOnce sync.Once
	fp     uint64

	// idxMu guards idx, this version's density index: at most one, built
	// single-flight (the slot is set before the build runs, so concurrent
	// requests join it instead of building again). Replacing or evicting
	// the entry drops its index with it.
	idxMu sync.Mutex
	idx   *indexEntry

	// models are this version's model slots (completed or in flight), each
	// also an element of the cache's recency list; retired is set once the
	// registry no longer holds the entry, after which nothing is cached on
	// it. Both are guarded by the model cache's mu.
	models  map[modelKey]*list.Element
	retired bool
}

// setDatasetLocked is the one write to the registry: it publishes next
// under name (nil removes the name) and retires the entry it displaces,
// so a replaced or evicted version's models leave the cache with it. The
// caller holds s.mu for writing.
func (s *Service) setDatasetLocked(name string, next *datasetEntry) {
	if old, ok := s.datasets[name]; ok {
		s.cache.retire(old)
	}
	if next == nil {
		delete(s.datasets, name)
		return
	}
	s.datasets[name] = next
}

func (e *datasetEntry) fingerprint() uint64 {
	e.fpOnce.Do(func() { e.fp = e.points.Fingerprint() })
	return e.fp
}

// dsInfo is the one place a dataset becomes its wire description, so
// the precision echo cannot drift between the listing, the single-get,
// and the upload response.
func dsInfo(name string, ds *geom.Dataset) api.DatasetInfo {
	return api.DatasetInfo{Name: name, N: ds.N, Dim: ds.Dim, Precision: ds.Precision()}
}

// New creates a service. With Options.Store set it warm-loads the
// dataset registry and the model cache from the snapshot directory —
// the kd-trees are rebuilt, the clustering itself is not re-run; a
// density index is rebuilt by the first request that needs it. Damaged
// snapshots are skipped and logged; they cost a refit on first request,
// nothing more.
func New(opts Options) *Service {
	s := &Service{
		opts:      opts,
		datasets:  make(map[string]*datasetEntry),
		cache:     newModelCache(opts.cacheSize()),
		streamSem: make(chan struct{}, opts.maxStreams()),
	}
	if opts.Store != nil {
		s.store = opts.Store
		dss, models := opts.Store.RestoreOwned(opts.Owns)
		// More snapshots than cache slots: keep the most recently
		// persisted (manifest order is persist order), so ModelsRestored
		// counts what is actually resident and no phantom evictions show
		// up in Stats before any traffic.
		if cap := opts.cacheSize(); len(models) > cap {
			models = models[len(models)-cap:]
		}
		s.warmLoad(dss, models)
	}
	return s
}

// indexEntry is one dataset version's density index, single-flight like
// a cache entry: it is set on its datasetEntry (with ready open) before
// the build runs, so concurrent requests wait on ready instead of
// building twice. A failed build clears the slot; the next request
// retries. dcMax is read and written under the entry's idxMu; idx and
// err are written once, before ready closes.
type indexEntry struct {
	dcMax float64 // build ceiling; == idx.DCutMax() once ready
	ready chan struct{}
	idx   *densindex.Index
	err   error
}

// residentIndex returns the version's index only if it is already built
// and covers dcut — the condition under which a fit request may be
// satisfied by a re-cut without ever paying a build.
func (e *datasetEntry) residentIndex(dcut float64) (*densindex.Index, bool) {
	e.idxMu.Lock()
	ent := e.idx
	covers := ent != nil && ent.dcMax >= dcut
	e.idxMu.Unlock()
	if !covers {
		return nil, false
	}
	select {
	case <-ent.ready:
	default:
		return nil, false // still building; a fit should not wait on it
	}
	if ent.err != nil {
		return nil, false
	}
	return ent.idx, true
}

// indexHeadroom scales a requested d_cut up to the build ceiling, so an
// analyst nudging d_cut upward re-cuts the existing index instead of
// triggering a rebuild per nudge.
const indexHeadroom = 1.5

// ensureIndex returns the dataset's density index, building it (or
// rebuilding it with a larger ceiling) if the resident one does not
// cover needDC. reused reports whether the caller joined an index that
// was already resident or in flight — false means this request
// initiated the build it waited on.
func (s *Service) ensureIndex(name string, needDC float64) (idx *densindex.Index, reused bool, err error) {
	return s.ensureIndexCeil(name, needDC, needDC*indexHeadroom)
}

// ensureIndexCeil is ensureIndex with an explicit build ceiling: a sweep
// knows its whole grid up front, so it builds at exactly the grid
// maximum instead of paying the interactive-nudge headroom (edge counts
// grow with the ceiling's square). The index answers the dataset
// version read on entry.
func (s *Service) ensureIndexCeil(name string, needDC, buildDC float64) (idx *densindex.Index, reused bool, err error) {
	if !(needDC > 0) {
		return nil, false, fmt.Errorf("service: dcut must be positive, got %g", needDC)
	}
	s.mu.RLock()
	e, ok := s.datasets[name]
	s.mu.RUnlock()
	if !ok {
		return nil, false, fmt.Errorf("service: unknown dataset %q", name)
	}
	for attempts := 0; ; attempts++ {
		e.idxMu.Lock()
		ent := e.idx
		if ent != nil && ent.dcMax >= needDC {
			e.idxMu.Unlock()
			<-ent.ready
			if ent.err == nil && ent.idx.DCutMax() >= needDC {
				return ent.idx, true, nil
			}
			// The build this caller joined failed (its owner already cleared
			// the slot) or fell back below needDC. Retry once from scratch,
			// then surface the error.
			if ent.err != nil && attempts > 0 {
				return nil, false, ent.err
			}
			continue
		}
		ent = &indexEntry{dcMax: buildDC, ready: make(chan struct{})}
		e.idx = ent
		e.idxMu.Unlock()

		// Build outside the lock; joiners block on ready. The headroom
		// build is retried at exactly needDC when it blows the edge budget —
		// the analyst asked for needDC, not for the convenience margin.
		idx, err := densindex.Build(e.points, buildDC, s.opts.Workers, indexMaxEdges)
		if errors.Is(err, densindex.ErrTooDense) {
			idx, err = densindex.Build(e.points, needDC, s.opts.Workers, indexMaxEdges)
		}
		e.idxMu.Lock()
		if err != nil {
			if e.idx == ent {
				e.idx = nil
			}
		} else {
			ent.dcMax = idx.DCutMax()
		}
		ent.idx, ent.err = idx, err
		e.idxMu.Unlock()
		close(ent.ready)
		if err != nil {
			return nil, false, err
		}
		s.indexBuilds.Add(1)
		return idx, false, nil
	}
}

// Reconcile aligns resident state with ring ownership after a membership
// change: datasets this shard no longer owns are evicted from memory —
// their registry entries retire, taking their cached models with them,
// and their snapshots stay on disk untouched, for the shard that owns
// them now or for this one if ownership returns — and snapshots it now
// owns are warm-loaded, so a rebalance costs zero refits. A nil filter owns everything (single-instance mode) and
// reconciling is a no-op.
func (s *Service) Reconcile(owns func(dataset string) bool) api.ReconcileStats {
	var st api.ReconcileStats
	if owns == nil {
		return st
	}
	s.mu.Lock()
	evicted := 0
	resident := make(map[string]bool, len(s.datasets))
	for name := range s.datasets {
		if !owns(name) {
			s.setDatasetLocked(name, nil)
			evicted++
			continue
		}
		resident[name] = true
	}
	s.mu.Unlock()
	st.DatasetsEvicted = evicted
	if s.store == nil {
		return st
	}
	// The snapshot decode is slow, so it runs outside the lock; the
	// resident set cannot lose entries meanwhile (evictions only happen
	// here), so the skip condition stays valid. An upload racing the
	// reconcile wins at install time: a disk snapshot yields to any
	// resident dataset, and its models then fail the installer's version
	// and fingerprint check.
	st.DatasetsLoaded, st.ModelsLoaded = s.warmLoad(s.store.RestoreOwned(func(name string) bool {
		return owns(name) && !resident[name]
	}))
	return st
}

// PutDataset registers (or replaces) a named dataset. The dataset is
// validated once here — NaN/Inf coordinates are rejected so a malformed
// upload cannot reach the clustering kernels — and frozen: the service
// keeps the pointer, so callers must not mutate it afterwards. Replacing
// a name retires the old entry, which takes every cached model fitted on
// the old points with it, and starts a new upload history, so the next
// assign fits fresh instead of stale-serving a drift lineage of the old
// points; re-uploading
// bit-identical points is a no-op that keeps the version, the cached
// models, and the snapshots (an idempotent provisioning script must not
// throw away the warm cache).
func (s *Service) PutDataset(name string, ds *geom.Dataset) (api.DatasetInfo, error) {
	if name == "" {
		return api.DatasetInfo{}, fmt.Errorf("service: empty dataset name")
	}
	if ds == nil || ds.N == 0 {
		return api.DatasetInfo{}, fmt.Errorf("service: dataset %q is empty", name)
	}
	if err := ds.Validate(); err != nil {
		return api.DatasetInfo{}, fmt.Errorf("service: dataset %q: %w", name, err)
	}
	s.mu.Lock()
	version := uint64(1)
	if old, ok := s.datasets[name]; ok {
		// Exact comparison, not a fingerprint: uploads are untrusted HTTP
		// bodies, and a 64-bit hash collision here would silently keep
		// serving the old points under the new upload. Precision is part
		// of identity — the same values re-uploaded at the other width
		// are a replacement, not a no-op (the kernels would read
		// different bytes).
		if old.points.Dim == ds.Dim &&
			slices.Equal(old.points.Coords, ds.Coords) &&
			slices.Equal(old.points.Coords32, ds.Coords32) {
			points, ver, epoch := old.points, old.version, old.epoch
			s.mu.Unlock()
			if s.store != nil {
				// Self-heal: if the snapshot for this version failed to
				// write earlier (or was damaged on disk since), the
				// idempotent re-upload is the retry opportunity.
				if err := s.store.EnsureDataset(name, ver, epoch, points); err != nil {
					s.persistErrors.Add(1)
					s.store.Log("service: re-persisting dataset %q v%d: %v", name, ver, err)
				}
			}
			return dsInfo(name, points), nil
		}
		version = old.version + 1
	}
	s.setDatasetLocked(name, &datasetEntry{points: ds, version: version, epoch: version, drifts: &lineages{}})
	s.mu.Unlock()
	if s.store != nil {
		// SaveDataset also drops the replaced version's snapshots — the
		// disk mirror of the retirement above.
		if err := s.store.SaveDataset(name, version, version, ds); err != nil {
			s.persistErrors.Add(1)
			s.store.Log("service: persisting dataset %q v%d: %v", name, version, err)
		}
	}
	return dsInfo(name, ds), nil
}

// Dataset returns a registered dataset.
func (s *Service) Dataset(name string) (*geom.Dataset, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.datasets[name]
	if !ok {
		return nil, false
	}
	return e.points, true
}

// Datasets lists the registry sorted by name.
func (s *Service) Datasets() []api.DatasetInfo {
	s.mu.RLock()
	out := make([]api.DatasetInfo, 0, len(s.datasets))
	for name, e := range s.datasets {
		out = append(out, dsInfo(name, e.points))
	}
	s.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// normalize canonicalizes request parameters for cache keying: the
// worker count is service policy (not part of model identity), and
// parameters the chosen algorithm ignores (Seed for the deterministic
// ones, Epsilon for everything but S-Approx-DPC) are zeroed so
// identical models are fitted and cached once.
func (s *Service) normalize(algorithm string, p core.Params) core.Params {
	p = core.CanonicalParams(algorithm, p)
	p.Workers = s.opts.Workers
	return p
}

// FitResult is the outcome of one fit request. IndexCut reports that
// the model was derived by re-cutting the dataset's density index
// instead of running the algorithm — byte-identical labels, a fraction
// of the cost, and no cache-miss accounting (no fit happened).
type FitResult struct {
	Model    *core.Model
	CacheHit bool
	IndexCut bool
}

// Fit returns the model for (dataset, algorithm, params), fitting it at
// most once: concurrent requests for the same key share a single
// ClusterDataset pass, later requests hit the LRU cache. algorithm is a
// paper name resolved against the full ten-algorithm registry. When the
// dataset's density index is already resident (built by an earlier
// decision-graph or sweep request, or slid by an append) and covers the
// requested d_cut, a covered algorithm's model is derived by an index
// re-cut instead of a fresh fit.
func (s *Service) Fit(dataset, algorithm string, p core.Params) (FitResult, error) {
	s.fitRequests.Add(1)
	alg, ok := core.AlgorithmByName(algorithm)
	if !ok {
		return FitResult{}, fmt.Errorf("service: unknown algorithm %q", algorithm)
	}
	s.mu.RLock()
	e, ok := s.datasets[dataset]
	s.mu.RUnlock()
	if !ok {
		return FitResult{}, fmt.Errorf("service: unknown dataset %q", dataset)
	}
	p = s.normalize(algorithm, p)
	if err := p.Validate(); err != nil {
		return FitResult{}, err
	}
	return s.fitEntry(dataset, e, alg, p)
}

// fitEntry is Fit against one registry entry the caller already read:
// the model it returns is always for e.version, even when the dataset
// has moved on since — a fit on a retired entry is returned to its
// caller but neither cached nor persisted. p must be normalized and
// valid.
func (s *Service) fitEntry(dataset string, e *datasetEntry, alg core.Algorithm, p core.Params) (FitResult, error) {
	algorithm := alg.Name()
	fill := func() (*core.Model, error) {
		return core.Fit(alg, e.points, p)
	}
	indexCut := false
	if densindex.Covers(algorithm) {
		if idx, ok := e.residentIndex(p.DCut); ok {
			indexCut = true
			fill = func() (*core.Model, error) {
				return s.cutModel(idx, algorithm, e.points, p)
			}
		}
	}
	var save func(*core.Model)
	if s.store != nil {
		// A fresh fit cached on a live dataset version: snapshot it so the
		// next process start skips this ClusterDataset pass. Workers is
		// zeroed on disk — thread count is host policy, not identity.
		save = func(m *core.Model) {
			pk := persist.ModelKey{Dataset: dataset, Version: e.version, Algorithm: algorithm, Params: p}
			if err := s.store.SaveModel(pk, m); err != nil {
				s.persistErrors.Add(1)
				s.store.Log("service: persisting model %s/%s: %v", dataset, algorithm, err)
			}
		}
	}
	model, hit, err := s.cache.getOrFit(e, modelKey{algorithm: algorithm, params: p}, !indexCut, fill, save)
	if err != nil {
		return FitResult{}, err
	}
	return FitResult{Model: model, CacheHit: hit, IndexCut: indexCut && !hit}, nil
}

// cutModel derives a covered algorithm's model from the density index:
// one re-cut, frozen by core.Restore with the index's own kd-tree as the
// assigner's, so a cut builds no second tree. The re-cut Result is
// byte-identical to what the algorithm would compute.
func (s *Service) cutModel(idx *densindex.Index, algorithm string, ds *geom.Dataset, p core.Params) (*core.Model, error) {
	res, err := idx.Cut(p)
	if err != nil {
		return nil, err
	}
	s.indexCuts.Add(1)
	return core.Restore(algorithm, ds, res, p, res.Timing.Total(), idx.Tree())
}

// Assign labels a batch of points against the model for (dataset,
// algorithm, params), fitting it first if needed. It returns the labels
// and whether the model came from the cache. With drift enabled the
// model may be a pinned previous-version model while a background refit
// runs (see serveFit), and the batch feeds the lineage's drift tracker.
func (s *Service) Assign(dataset, algorithm string, p core.Params, pts [][]float64) ([]int32, FitResult, error) {
	fr, obs, err := s.serveFit(dataset, algorithm, p)
	if err != nil {
		return nil, FitResult{}, err
	}
	s.assignRequests.Add(1)
	labels, err := s.assignChunk(fr.Model, obs, pts)
	if err != nil {
		return nil, FitResult{}, err
	}
	return labels, fr, nil
}

// assignChunk is the labeling core shared by the batch path (one chunk =
// the whole batch) and the streaming path (one chunk per response
// record): a parallel AssignAll plus the points counter. A non-nil obs
// adds drift observation — an exact halo count off the labels, one
// O(dim) center distance every Config.SampleStride() points for the
// quantile sketch, one tracker lock per chunk — and kicks the
// background refit when this chunk trips the tracker.
func (s *Service) assignChunk(m *core.Model, obs *driftObs, pts [][]float64) ([]int32, error) {
	labels, err := m.AssignAll(pts, s.opts.Workers)
	if err != nil {
		return nil, err
	}
	s.pointsAssigned.Add(int64(len(pts)))
	if obs == nil || obs.tracker == nil {
		return labels, nil
	}
	var halo int64
	for _, l := range labels {
		if l == core.NoCluster {
			halo++
		}
	}
	stride := s.opts.Drift.SampleStride()
	samples := make([]float64, 0, len(pts)/stride+1)
	for i := 0; i < len(pts); i += stride {
		samples = append(samples, m.CenterDist(pts[i], labels[i]))
	}
	if obs.tracker.ObserveSampled(int64(len(pts)), halo, samples) {
		s.driftTrips.Add(1)
		s.kickRefit(obs.st, obs.tracker)
	}
	return labels, nil
}

// Stats returns current counters (shape: api.Stats).
func (s *Service) Stats() api.Stats {
	s.mu.RLock()
	nds := len(s.datasets)
	nf32 := 0
	for _, e := range s.datasets {
		if e.points.Float32() {
			nf32++
		}
	}
	s.mu.RUnlock()
	hits, misses, evictions, cached := s.cache.counters()
	st := api.Stats{
		Datasets:       nds,
		DatasetsF32:    nf32,
		ModelsCached:   cached,
		CacheCapacity:  s.cache.capacity,
		FitRequests:    s.fitRequests.Load(),
		CacheHits:      hits,
		CacheMisses:    misses,
		Evictions:      evictions,
		AssignRequests: s.assignRequests.Load(),
		PointsAssigned: s.pointsAssigned.Load(),

		IndexBuilds: s.indexBuilds.Load(),
		IndexCuts:   s.indexCuts.Load(),

		DatasetsRestored: int(s.datasetsRestored.Load()),
		ModelsRestored:   int(s.modelsRestored.Load()),
		PersistErrors:    s.persistErrors.Load(),

		DatasetsReplicated: s.datasetsReplicated.Load(),
		ModelsReplicated:   s.modelsReplicated.Load(),

		DriftTrips:       s.driftTrips.Load(),
		DriftRefits:      s.driftRefits.Load(),
		DriftStaleServes: s.driftStaleServes.Load(),
		PointsAppended:   s.pointsAppended.Load(),
		PointsExpired:    s.pointsExpired.Load(),
		IndexUpdates:     s.indexUpdates.Load(),
	}
	st.DriftScore, st.DriftModels = s.driftScore()
	if total := hits + misses; total > 0 {
		st.HitRate = float64(hits) / float64(total)
	}
	return st
}

// DecisionGraph computes the decision graph of a dataset at dcut from
// its density index (built on first use), returning the (rho, delta)
// pairs sorted by descending delta — density peaks first, the order an
// analyst reads to pick rho_min and delta_min. limit > 0 truncates the
// point list after sorting; N always reports the full dataset size.
func (s *Service) DecisionGraph(dataset string, dcut float64, limit int) (*api.DecisionGraphResponse, error) {
	idx, reused, err := s.ensureIndex(dataset, dcut)
	if err != nil {
		return nil, err
	}
	rho, delta, err := idx.Decision(dcut, s.opts.Workers)
	if err != nil {
		return nil, err
	}
	s.indexCuts.Add(1)
	pts := make([]api.DecisionPoint, len(rho))
	for i := range pts {
		pts[i] = api.DecisionPoint{ID: int32(i), Rho: rho[i], Delta: delta[i]}
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a].Delta > pts[b].Delta })
	if limit > 0 && len(pts) > limit {
		pts = pts[:limit]
	}
	return &api.DecisionGraphResponse{
		Dataset: dataset, DCut: dcut, N: len(rho),
		IndexReused: reused, Points: pts,
	}, nil
}

// Sweep re-cuts one dataset's density index for every requested
// parameter setting: the index is built (or reused) once, each setting
// then costs an O(n log n)-ish cut instead of a fit, and nothing enters
// the model cache — a K-setting sweep must not evict K models. The
// algorithm (default "Ex-DPC") must be covered by the index; every
// result is byte-identical to fitting that algorithm at the setting.
func (s *Service) Sweep(req api.SweepRequest) (*api.SweepResponse, error) {
	algorithm := req.Algorithm
	if algorithm == "" {
		algorithm = "Ex-DPC"
	}
	if _, ok := core.AlgorithmByName(algorithm); !ok {
		return nil, fmt.Errorf("service: unknown algorithm %q", algorithm)
	}
	if !densindex.Covers(algorithm) {
		return nil, fmt.Errorf("service: algorithm %q is not covered by the density index (covered: %v)",
			algorithm, densindex.CoveredAlgorithms())
	}
	if len(req.Settings) == 0 {
		return nil, fmt.Errorf("service: sweep needs at least one parameter setting")
	}
	maxDC := 0.0
	for i, set := range req.Settings {
		if !(set.DCut > 0) {
			return nil, fmt.Errorf("service: setting %d: dcut must be positive, got %g", i, set.DCut)
		}
		if set.DCut > maxDC {
			maxDC = set.DCut
		}
	}
	// The grid is known in full, so build at exactly its maximum — the
	// interactive-nudge headroom would square the edge count for nothing.
	idx, reused, err := s.ensureIndexCeil(req.Dataset, maxDC, maxDC)
	if err != nil {
		return nil, err
	}
	resp := &api.SweepResponse{
		Dataset: req.Dataset, Algorithm: algorithm, N: idx.N(),
		IndexReused: reused, Results: make([]api.SweepResult, len(req.Settings)),
	}
	for i, set := range req.Settings {
		p := s.normalize(algorithm, core.Params{DCut: set.DCut, RhoMin: set.RhoMin, DeltaMin: set.DeltaMin})
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("service: setting %d: %w", i, err)
		}
		res, err := idx.Cut(p)
		if err != nil {
			return nil, fmt.Errorf("service: setting %d: %w", i, err)
		}
		s.indexCuts.Add(1)
		noise := 0
		for _, l := range res.Labels {
			if l == core.NoCluster {
				noise++
			}
		}
		r := api.SweepResult{
			Params:   wireParams(p),
			Clusters: res.NumClusters(),
			Noise:    noise,
			Centers:  append([]int32{}, res.Centers...),
		}
		if req.IncludeLabels {
			r.Labels = res.Labels
		}
		resp.Results[i] = r
	}
	return resp, nil
}

// modelKey identifies one model of a dataset version, and one drift
// lineage of an upload history (which spans versions): the algorithm and
// its normalized parameters. core.Params is a flat struct of scalars, so
// the key is comparable and works as a map key.
type modelKey struct {
	algorithm string
	params    core.Params
}

// modelCache bounds the model slots of every dataset version with one LRU
// and fills them single-flight: a miss links an in-flight slot under the
// lock, then fits outside it, so concurrent requests for the same model
// block on the slot instead of fitting again. Failed fits are unlinked so
// the next request retries. mu guards the recency list and every
// datasetEntry's models and retired fields.
type modelCache struct {
	capacity int

	mu sync.Mutex
	ll *list.List // front = most recently used; values are *cacheEntry
	// clock stamps cacheEntry.used on every link and touch, so one
	// entry's slots sort by recency without a walk of the whole list.
	clock uint64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheEntry struct {
	ds    *datasetEntry
	key   modelKey
	used  uint64        // the cache clock at the last link or touch
	ready chan struct{} // closed once model/err are set
	model *core.Model
	err   error
}

func newModelCache(capacity int) *modelCache {
	return &modelCache{capacity: capacity, ll: list.New()}
}

// linkLocked puts ce in its entry's slots at the front of the LRU.
func (c *modelCache) linkLocked(ce *cacheEntry) {
	if ce.ds.models == nil {
		ce.ds.models = make(map[modelKey]*list.Element)
	}
	c.clock++
	ce.used = c.clock
	ce.ds.models[ce.key] = c.ll.PushFront(ce)
}

// touchLocked marks el most recently used.
func (c *modelCache) touchLocked(el *list.Element) {
	c.clock++
	el.Value.(*cacheEntry).used = c.clock
	c.ll.MoveToFront(el)
}

// unlinkLocked drops el from the LRU and from its entry's slots.
func (c *modelCache) unlinkLocked(el *list.Element) {
	ce := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(ce.ds.models, ce.key)
}

// getOrFit returns ds's model for key, joining an in-flight fit or
// performing the fit itself when absent. hit reports whether the caller
// avoided a fresh fit (cached or joined). countMiss controls whether a
// fresh fill counts as a cache miss: true for real fits, false for
// index re-cuts, which are not fits and must not skew the hit rate the
// misses counter implies. A fill that lands in the cache is passed to
// save (when non-nil) after its joiners are released; one on a retired
// entry — retired before the miss or while the fill ran — is returned
// to its caller but neither cached nor saved.
func (c *modelCache) getOrFit(ds *datasetEntry, key modelKey, countMiss bool, fit func() (*core.Model, error), save func(*core.Model)) (model *core.Model, hit bool, err error) {
	c.mu.Lock()
	if el, ok := ds.models[key]; ok {
		c.touchLocked(el)
		e := el.Value.(*cacheEntry)
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			// The fit this caller joined failed; surface its error without
			// counting a hit. The owner already unlinked the slot, so a
			// retry starts fresh.
			return nil, false, e.err
		}
		c.hits.Add(1)
		return e.model, true, nil
	}
	e := &cacheEntry{ds: ds, key: key, ready: make(chan struct{})}
	if !ds.retired {
		c.linkLocked(e)
		c.evictLocked()
	}
	c.mu.Unlock()
	if countMiss {
		c.misses.Add(1)
	}

	e.model, e.err = fit()
	c.mu.Lock()
	el, kept := ds.models[key]
	kept = kept && el.Value == e
	if kept && e.err != nil {
		c.unlinkLocked(el)
		kept = false
	}
	close(e.ready)
	if kept {
		// The insert-time sweep skips in-flight slots, so the cache can
		// exceed capacity while fits run; settle it now that this slot is
		// evictable.
		c.evictLocked()
	}
	c.mu.Unlock()
	if kept && save != nil {
		save(e.model)
	}
	return e.model, false, e.err
}

// peekReady returns ds's completed model for key without blocking on an
// in-flight fit and without touching the hit/miss counters (callers
// that adopt the peek account for it themselves). A successful peek
// still refreshes LRU recency.
func (c *modelCache) peekReady(ds *datasetEntry, key modelKey) (*core.Model, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := ds.models[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	select {
	case <-e.ready:
	default:
		return nil, false
	}
	if e.err != nil || e.model == nil {
		return nil, false
	}
	c.touchLocked(el)
	return e.model, true
}

// put installs an already-fitted model — a snapshot restore — as a
// completed slot of ds at the front, evicting LRU overflow. build runs
// outside the lock, and only while the slot is empty and ds live; put
// reports whether the model landed (false: a concurrent install or fit
// won the race, or ds was retired). Restores neither count as hits nor
// misses; the counters keep meaning "requests served without / with a
// fit".
func (c *modelCache) put(ds *datasetEntry, key modelKey, build func() (*core.Model, error)) (*core.Model, bool, error) {
	c.mu.Lock()
	_, taken := ds.models[key]
	taken = taken || ds.retired
	c.mu.Unlock()
	if taken {
		return nil, false, nil
	}
	m, err := build()
	if err != nil {
		return nil, false, err
	}
	ready := make(chan struct{})
	close(ready)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := ds.models[key]; ok || ds.retired {
		return nil, false, nil
	}
	c.linkLocked(&cacheEntry{ds: ds, key: key, ready: ready, model: m})
	c.evictLocked()
	return m, true, nil
}

// fitted returns ds's completed, successful models, most recently used
// first. In-flight and failed slots are excluded.
func (c *modelCache) fitted(ds *datasetEntry) []*cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*cacheEntry
	for _, el := range ds.models {
		e := el.Value.(*cacheEntry)
		select {
		case <-e.ready:
		default:
			continue // still fitting
		}
		if e.err == nil && e.model != nil {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b *cacheEntry) int { return cmp.Compare(b.used, a.used) })
	return out
}

// retire marks a registry entry the registry no longer holds and unlinks
// its model slots, in-flight fits included: their callers and joiners
// still get the model, but nothing lands on the entry again. Unlinking is
// not an eviction.
func (c *modelCache) retire(ds *datasetEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds.retired = true
	for _, el := range ds.models {
		c.ll.Remove(el)
	}
	ds.models = nil
}

// evictLocked drops least-recently-used completed slots until the cache
// fits its capacity. In-flight slots are never evicted (their fitters and
// joiners hold references); if everything is in flight the cache
// temporarily exceeds capacity.
func (c *modelCache) evictLocked() {
	for c.ll.Len() > c.capacity {
		evicted := false
		for el := c.ll.Back(); el != nil; el = el.Prev() {
			select {
			case <-el.Value.(*cacheEntry).ready:
			default:
				continue // still fitting
			}
			c.unlinkLocked(el)
			c.evictions.Add(1)
			evicted = true
			break
		}
		if !evicted {
			return
		}
	}
}

func (c *modelCache) counters() (hits, misses, evictions int64, cached int) {
	c.mu.Lock()
	cached = c.ll.Len()
	c.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), c.evictions.Load(), cached
}
