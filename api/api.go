// Package api defines the versioned wire contract of the dpcd HTTP API
// (the /v1 routes): every request and response shape the daemon accepts
// or produces, in one dependency-free package shared by the server
// (internal/service), the typed client (service.Client), and the cmd/
// CLIs. The structs here are the compatibility surface — changing a
// field tag is a wire-protocol change and belongs in a /v2.
//
// Endpoints and their shapes:
//
//	GET  /healthz                    {"status":"ok"} (plus "self" in ring mode)
//	GET  /v1/datasets                []DatasetInfo
//	GET  /v1/datasets/{name}         DatasetInfo
//	PUT  /v1/datasets/{name}         raw CSV / binary / frame body -> DatasetInfo
//	POST /v1/points                  AppendRequest -> AppendResponse (sliding-window append)
//	POST /v1/fit                     FitRequest -> FitResponse
//	POST /v1/assign                  AssignRequest -> AssignResponse
//	POST /v1/assign/stream           FitRequest header + point lines -> StreamRecord lines
//	GET  /v1/decision-graph          DecisionGraphResponse
//	POST /v1/sweep                   SweepRequest -> SweepResponse
//	GET  /v1/drift                   DriftResponse (per-model drift trackers)
//	GET  /v1/stats                   Stats (single instance) or RingStats (ring mode)
//	GET  /v1/ring                    RingInfo
//	POST /v1/ring                    RingUpdateRequest -> RingUpdateResponse
//	POST /v1/replica/snapshot        raw DPS1 snapshot image -> InstallResult (ring-internal)
//
// Every non-2xx response carries the uniform JSON error envelope
// {"error":{"code":"...","message":"..."}} (see ErrorEnvelope); clients
// decode it into the typed *APIError.
package api

import (
	"encoding/json"
	"math"
	"strconv"
)

// Params is the wire form of the clustering parameters. Workers is
// deliberately absent: thread count is server policy, not model
// identity.
type Params struct {
	DCut     float64 `json:"dcut"`
	RhoMin   float64 `json:"rho_min"`
	DeltaMin float64 `json:"delta_min"`
	Epsilon  float64 `json:"epsilon,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
}

// FitRequest is the body of POST /v1/fit and the model half of
// POST /v1/assign.
type FitRequest struct {
	Dataset   string `json:"dataset"`
	Algorithm string `json:"algorithm"`
	Params    Params `json:"params"`
}

// ModelStats summarizes a fitted model.
type ModelStats struct {
	Algorithm string  `json:"algorithm"`
	N         int     `json:"n"`
	Dim       int     `json:"dim"`
	Clusters  int     `json:"clusters"`
	Noise     int     `json:"noise"`
	FitSecs   float64 `json:"fit_seconds"`
	Timing    struct {
		Build float64 `json:"build_seconds"`
		Rho   float64 `json:"rho_seconds"`
		Delta float64 `json:"delta_seconds"`
		Label float64 `json:"label_seconds"`
	} `json:"timing"`
}

// FitResponse reports the fitted (or cached) model. IndexCut marks a
// model derived by re-cutting the dataset's parameter-flexible density
// index instead of running the clustering algorithm — same bytes,
// far cheaper.
type FitResponse struct {
	Dataset   string     `json:"dataset"`
	CacheHit  bool       `json:"cache_hit"`
	IndexCut  bool       `json:"index_cut,omitempty"`
	Model     ModelStats `json:"model"`
	ParamsUse Params     `json:"params"`
}

// AssignRequest is the body of POST /v1/assign.
type AssignRequest struct {
	FitRequest
	Points [][]float64 `json:"points"`
}

// AssignResponse carries one label per submitted point.
type AssignResponse struct {
	Labels   []int32 `json:"labels"`
	Clusters int     `json:"clusters"`
	CacheHit bool    `json:"cache_hit"`
}

// DatasetInfo describes one registered dataset. Precision is the
// storage width of its coordinates — PrecisionF32 or PrecisionF64 —
// negotiated at upload via ?precision= and echoed everywhere the
// dataset is listed. Empty means f64 (responses from daemons predating
// the precision surface).
type DatasetInfo struct {
	Name      string `json:"name"`
	N         int    `json:"n"`
	Dim       int    `json:"dim"`
	Precision string `json:"precision,omitempty"`
}

// AppendRequest is the body of POST /v1/points: points to append to a
// registered dataset's sliding window. The rows must match the
// dataset's dimensionality and contain no NaN/Inf.
type AppendRequest struct {
	Dataset string      `json:"dataset"`
	Points  [][]float64 `json:"points"`
}

// AppendResponse reports one sliding-window append: the dataset's new
// size and version, how many submitted points landed, how many old (or
// over-window submitted) points expired, and whether the density index
// was maintained incrementally (false also covers "no index resident").
type AppendResponse struct {
	Dataset      string `json:"dataset"`
	N            int    `json:"n"`
	Dim          int    `json:"dim"`
	Precision    string `json:"precision,omitempty"`
	Version      uint64 `json:"version"`
	Appended     int    `json:"appended"`
	Expired      int    `json:"expired"`
	IndexUpdated bool   `json:"index_updated"`
}

// DriftReference is the fit-time distribution a drift tracker scores
// against: exact quantiles of the training points' distance to their
// assigned cluster centers, and the training halo (noise) rate.
type DriftReference struct {
	Q50      float64 `json:"q50"`
	Q90      float64 `json:"q90"`
	HaloRate float64 `json:"halo_rate"`
	N        int     `json:"n"`
}

// DriftWindow summarizes one closed observation window of a tracker.
type DriftWindow struct {
	Count    int64   `json:"count"`
	Halo     int64   `json:"halo"`
	HaloRate float64 `json:"halo_rate"`
	Q50      float64 `json:"q50"`
	Q90      float64 `json:"q90"`
	Score    float64 `json:"score"`
}

// DriftStatus is the measurement half of one tracked model: lifetime
// counts, the latest window's quantiles/halo rate/score, whether the
// tracker has tripped, the reference, and recent window history.
type DriftStatus struct {
	Observed  int64          `json:"observed"`
	Halo      int64          `json:"halo"`
	HaloRate  float64        `json:"halo_rate"`
	Q50       float64        `json:"q50"`
	Q90       float64        `json:"q90"`
	Score     float64        `json:"score"`
	Tripped   bool           `json:"tripped"`
	Reference DriftReference `json:"reference"`
	Windows   []DriftWindow  `json:"windows,omitempty"`
}

// DriftModel is one tracked serving lineage of GET /v1/drift: which
// model (algorithm + params), the dataset version it currently serves,
// whether a background refit is in flight, and its tracker status (nil
// before any tracked assign traffic).
type DriftModel struct {
	Algorithm string       `json:"algorithm"`
	Params    Params       `json:"params"`
	Version   uint64       `json:"version"`
	Refitting bool         `json:"refitting"`
	Status    *DriftStatus `json:"status,omitempty"`
}

// DriftResponse is the body of GET /v1/drift?dataset=…(&algorithm=…).
// Enabled is false when the daemon runs with drift tracking off; Models
// lists the tracked lineages of the dataset, sorted by algorithm.
type DriftResponse struct {
	Dataset string       `json:"dataset"`
	Enabled bool         `json:"enabled"`
	Models  []DriftModel `json:"models"`
}

// StreamSummary is the trailing record of a successful label stream.
type StreamSummary struct {
	Points   int64 `json:"points"`
	Chunks   int64 `json:"chunks"`
	Clusters int   `json:"clusters"`
	CacheHit bool  `json:"cache_hit"`
}

// StreamRecord is one NDJSON line of the /v1/assign/stream response:
// exactly one of Labels, Summary, or Error is set.
type StreamRecord struct {
	Labels  []int32        `json:"labels,omitempty"`
	Summary *StreamSummary `json:"summary,omitempty"`
	Error   string         `json:"error,omitempty"`
}

// DecisionPoint is one point of the decision graph: its density rho and
// dependent distance delta at the requested d_cut. Density peaks carry
// delta = +Inf, which JSON numbers cannot express — the JSON form maps
// it to null (see MarshalJSON); the binary frame codec carries the IEEE
// bits verbatim.
type DecisionPoint struct {
	ID    int32   `json:"id"`
	Rho   float64 `json:"rho"`
	Delta float64 `json:"delta"`
}

// MarshalJSON encodes an infinite delta as null.
func (p DecisionPoint) MarshalJSON() ([]byte, error) {
	delta := []byte("null")
	if !math.IsInf(p.Delta, 0) {
		delta = strconv.AppendFloat(nil, p.Delta, 'g', -1, 64)
	}
	b := make([]byte, 0, 48)
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(p.ID), 10)
	b = append(b, `,"rho":`...)
	b = strconv.AppendFloat(b, p.Rho, 'g', -1, 64)
	b = append(b, `,"delta":`...)
	b = append(b, delta...)
	b = append(b, '}')
	return b, nil
}

// UnmarshalJSON restores a null delta to +Inf.
func (p *DecisionPoint) UnmarshalJSON(raw []byte) error {
	var aux struct {
		ID    int32    `json:"id"`
		Rho   float64  `json:"rho"`
		Delta *float64 `json:"delta"`
	}
	if err := json.Unmarshal(raw, &aux); err != nil {
		return err
	}
	p.ID, p.Rho = aux.ID, aux.Rho
	if aux.Delta == nil {
		p.Delta = math.Inf(1)
	} else {
		p.Delta = *aux.Delta
	}
	return nil
}

// DecisionGraphResponse is the body of GET /v1/decision-graph: the
// (rho, delta) pairs analysts read to pick rho_min and delta_min,
// sorted by descending delta (infinite deltas — the density peaks —
// first). Points is truncated to the ?limit= query parameter when one
// was given; N is always the full dataset size. IndexReused reports
// whether the dataset's density index was already resident (false means
// this request paid the one-time build).
type DecisionGraphResponse struct {
	Dataset     string          `json:"dataset"`
	DCut        float64         `json:"dcut"`
	N           int             `json:"n"`
	IndexReused bool            `json:"index_reused"`
	Points      []DecisionPoint `json:"points"`
}

// SweepSetting is one parameter combination of a POST /v1/sweep.
type SweepSetting struct {
	DCut     float64 `json:"dcut"`
	RhoMin   float64 `json:"rho_min"`
	DeltaMin float64 `json:"delta_min"`
}

// SweepRequest asks for the clusterings of many parameter settings in
// one call: the dataset's density index is built (or reused) once and
// re-cut per setting, so a K-setting sweep costs roughly one fit plus K
// cheap cuts instead of K fits. Algorithm defaults to "Ex-DPC" and must
// be one of the index-covered exact algorithms; IncludeLabels adds the
// full label vector to every result (large — n values per setting).
type SweepRequest struct {
	Dataset       string         `json:"dataset"`
	Algorithm     string         `json:"algorithm,omitempty"`
	Settings      []SweepSetting `json:"settings"`
	IncludeLabels bool           `json:"include_labels,omitempty"`
}

// SweepResult is the clustering summary of one setting.
type SweepResult struct {
	Params   Params  `json:"params"`
	Clusters int     `json:"clusters"`
	Noise    int     `json:"noise"`
	Centers  []int32 `json:"centers"`
	Labels   []int32 `json:"labels,omitempty"`
}

// SweepResponse is the body of POST /v1/sweep, one result per setting
// in request order. IndexReused is false when this sweep paid the
// one-time index build.
type SweepResponse struct {
	Dataset     string        `json:"dataset"`
	Algorithm   string        `json:"algorithm"`
	N           int           `json:"n"`
	IndexReused bool          `json:"index_reused"`
	Results     []SweepResult `json:"results"`
}

// Stats is a point-in-time snapshot of one instance's service counters
// (GET /v1/stats; in ring mode the per-peer legs of RingStats).
type Stats struct {
	Datasets int `json:"datasets"`
	// DatasetsF32 is how many resident datasets are stored at float32
	// precision (the rest are float64) — the stats echo of the
	// per-dataset Precision field.
	DatasetsF32    int     `json:"datasets_f32"`
	ModelsCached   int     `json:"models_cached"`
	CacheCapacity  int     `json:"cache_capacity"`
	FitRequests    int64   `json:"fit_requests"`
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	Evictions      int64   `json:"evictions"`
	AssignRequests int64   `json:"assign_requests"`
	PointsAssigned int64   `json:"points_assigned"`
	HitRate        float64 `json:"hit_rate"`
	// IndexBuilds counts density-index constructions and IndexCuts the
	// parameter re-cuts served from them (each a fit avoided).
	IndexBuilds int64 `json:"index_builds"`
	IndexCuts   int64 `json:"index_cuts"`
	// DatasetsRestored and ModelsRestored count what the daemon
	// warm-loaded from its snapshot store on start; PersistErrors counts
	// snapshot writes that failed (serving continued, durability did not).
	DatasetsRestored int   `json:"datasets_restored"`
	ModelsRestored   int   `json:"models_restored"`
	PersistErrors    int64 `json:"persist_errors"`
	// DatasetsReplicated and ModelsReplicated count snapshot installs
	// shipped by a key's primary — warm-loads of replica state, disjoint
	// from both the restored counters (disk) and cache misses (refits).
	DatasetsReplicated int64 `json:"datasets_replicated"`
	ModelsReplicated   int64 `json:"models_replicated"`
	// DriftModels is how many serving lineages carry a live drift
	// tracker and DriftScore the worst current score among them;
	// DriftTrips counts tracker trips, DriftRefits the background refits
	// that landed, and DriftStaleServes the assigns answered by a
	// previous-version model while awaiting a trip or refit.
	DriftModels      int     `json:"drift_models"`
	DriftScore       float64 `json:"drift_score"`
	DriftTrips       int64   `json:"drift_trips"`
	DriftRefits      int64   `json:"drift_refits"`
	DriftStaleServes int64   `json:"drift_stale_serves"`
	// PointsAppended and PointsExpired count sliding-window mutations
	// (POST /v1/points); IndexUpdates counts the density-index
	// maintenances done incrementally instead of by full rebuild.
	PointsAppended int64 `json:"points_appended"`
	PointsExpired  int64 `json:"points_expired"`
	IndexUpdates   int64 `json:"index_updates"`
}

// ReconcileStats reports one ring-rebalance pass over resident state.
type ReconcileStats struct {
	DatasetsLoaded  int `json:"datasets_loaded"`
	ModelsLoaded    int `json:"models_loaded"`
	DatasetsEvicted int `json:"datasets_evicted"`
}

// InstallResult reports what installing one shipped replication
// snapshot did (POST /v1/replica/snapshot).
type InstallResult struct {
	Kind      string `json:"kind"` // "dataset" or "model"
	Dataset   string `json:"dataset"`
	Version   uint64 `json:"version"`
	Installed bool   `json:"installed"` // false: already current (idempotent no-op)
}

// RingUpdateRequest is the body of POST /v1/ring.
type RingUpdateRequest struct {
	Peers []string `json:"peers"`
}

// RingUpdateResponse reports the applied membership and what the
// reconcile moved.
type RingUpdateResponse struct {
	Self      string         `json:"self"`
	Peers     []string       `json:"peers"`
	Reconcile ReconcileStats `json:"reconcile"`
}

// RingInfo is the body of GET /v1/ring. Peers is the live ring
// membership; Configured is the full administered set and Down the
// difference — what the heartbeat currently excludes.
type RingInfo struct {
	Self       string   `json:"self"`
	Peers      []string `json:"peers"`
	Configured []string `json:"configured"`
	Down       []string `json:"down,omitempty"`
	RF         int      `json:"rf"`
	Vnodes     int      `json:"vnodes"`
	Owner      string   `json:"owner,omitempty"`  // primary of ?key=, when asked
	Owners     []string `json:"owners,omitempty"` // full replica set of ?key=
	// Dataset echoes the resident dataset the queried key names — size,
	// dimensionality, and storage precision — when the answering
	// instance replicates it; nil when the key is unknown here.
	Dataset *DatasetInfo `json:"dataset,omitempty"`
}

// PeerStats is one shard's leg of the aggregated /v1/stats.
type PeerStats struct {
	Peer string `json:"peer"`
	// Unreachable marks a configured peer outside the live set: it is
	// reported without being probed, so one dead shard adds no latency to
	// the fan-out and never fails it.
	Unreachable bool   `json:"unreachable,omitempty"`
	Error       string `json:"error,omitempty"`
	Stats       *Stats `json:"stats,omitempty"`
}

// RingStats aggregates /v1/stats across the ring: summed counters plus
// the per-peer breakdown. Forwarded/ForwardErrors and the replication
// counters are the answering instance's routing counters (each instance
// counts its own hops and ships).
type RingStats struct {
	Self              string      `json:"self"`
	Peers             []string    `json:"peers"`
	Down              []string    `json:"down,omitempty"`
	PeersUp           int         `json:"peers_up"`
	RF                int         `json:"rf"`
	Forwarded         int64       `json:"forwarded"`
	ForwardErrors     int64       `json:"forward_errors"`
	Replicated        int64       `json:"replicated"`
	ReplicationErrors int64       `json:"replication_errors"`
	Total             Stats       `json:"total"`
	PerPeer           []PeerStats `json:"per_peer"`
}

// Accumulate folds another shard's counters into s; HitRate is the
// caller's to recompute once every peer is in.
func (s *Stats) Accumulate(o Stats) {
	s.Datasets += o.Datasets
	s.DatasetsF32 += o.DatasetsF32
	s.ModelsCached += o.ModelsCached
	s.CacheCapacity += o.CacheCapacity
	s.FitRequests += o.FitRequests
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.Evictions += o.Evictions
	s.AssignRequests += o.AssignRequests
	s.PointsAssigned += o.PointsAssigned
	s.IndexBuilds += o.IndexBuilds
	s.IndexCuts += o.IndexCuts
	s.DatasetsRestored += o.DatasetsRestored
	s.ModelsRestored += o.ModelsRestored
	s.PersistErrors += o.PersistErrors
	s.DatasetsReplicated += o.DatasetsReplicated
	s.ModelsReplicated += o.ModelsReplicated
	s.DriftModels += o.DriftModels
	if o.DriftScore > s.DriftScore {
		s.DriftScore = o.DriftScore
	}
	s.DriftTrips += o.DriftTrips
	s.DriftRefits += o.DriftRefits
	s.DriftStaleServes += o.DriftStaleServes
	s.PointsAppended += o.PointsAppended
	s.PointsExpired += o.PointsExpired
	s.IndexUpdates += o.IndexUpdates
}
