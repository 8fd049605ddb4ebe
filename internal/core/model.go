package core

import (
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/partition"
)

// Model is a fitted clustering frozen for serving: the training dataset,
// the full Result (Rho/Delta/Dep/Centers/Labels), the parameters and
// algorithm that produced it, and the kd-tree over the training points
// that Assign uses to label new points in O(log n) per query instead of
// re-clustering. A Model is immutable after Fit and safe for concurrent
// use — the fit-once/assign-many contract the serving layer builds on.
type Model struct {
	ds       *geom.Dataset
	res      *Result
	params   Params
	algo     string
	assigner *Assigner
	fitTime  time.Duration
}

// Fit runs one algorithm over a dataset and freezes the outcome into a
// Model. The dataset must not be mutated afterwards; the Model keeps a
// reference, not a copy. Works uniformly for every Algorithm in the
// framework. The assignment index is a kd-tree over the training points:
// the paper's three algorithms fit with one and hand it over, the others
// get one built here.
func Fit(alg Algorithm, ds *geom.Dataset, p Params) (*Model, error) {
	start := time.Now()
	var (
		res  *Result
		tree *kdtree.Tree
		err  error
	)
	if tc, ok := alg.(treeClusterer); ok {
		res, tree, err = tc.clusterTree(ds, p)
	} else {
		res, err = alg.ClusterDataset(ds, p)
	}
	if err != nil {
		return nil, err
	}
	assigner, err := newAssigner(ds, res, p.DCut, tree)
	if err != nil {
		return nil, err
	}
	return &Model{
		ds:       ds,
		res:      res,
		params:   p,
		algo:     alg.Name(),
		assigner: assigner,
		fitTime:  time.Since(start),
	}, nil
}

// treeClusterer is implemented by the algorithms whose fit builds a
// kd-tree over every point of the dataset. clusterTree is ClusterDataset
// that also returns that tree, read-only from then on, so Fit hands it to
// the assigner instead of building a second one.
type treeClusterer interface {
	clusterTree(ds *geom.Dataset, p Params) (*Result, *kdtree.Tree, error)
}

// Restore rebuilds a fitted Model from an already-computed Result
// without re-running the algorithm. It serves two construction paths:
// persisted snapshots (the dataset and Result are taken as-is and only
// the kd-tree assignment index — the one piece a snapshot does not
// serialize — is re-derived from the points) and density-index re-cuts
// (a parameter-flexible index derives the Result for new parameters,
// then freezes it into a servable Model here). fitTime is the cost of
// producing the Result — the original fit, or the re-cut — kept so such
// models report honest ModelStats. tree, when non-nil, is a read-only
// kd-tree over every point of ds that the assigner adopts instead of
// building its own (a density index shares its tree this way); nil
// builds one. The algorithm name must resolve against the registry and
// the result must match the dataset.
func Restore(algorithm string, ds *geom.Dataset, res *Result, p Params, fitTime time.Duration, tree *kdtree.Tree) (*Model, error) {
	if _, ok := AlgorithmByName(algorithm); !ok {
		return nil, fmt.Errorf("core: unknown algorithm %q", algorithm)
	}
	if len(res.Rho) != ds.N || len(res.Delta) != ds.N || len(res.Dep) != ds.N {
		return nil, fmt.Errorf("core: result arrays sized %d/%d/%d for %d points",
			len(res.Rho), len(res.Delta), len(res.Dep), ds.N)
	}
	for l, c := range res.Centers {
		if c < 0 || int(c) >= ds.N {
			return nil, fmt.Errorf("core: center %d is point %d, out of range [0,%d)", l, c, ds.N)
		}
	}
	nc := int32(len(res.Centers))
	for i, l := range res.Labels {
		if l != NoCluster && (l < 0 || l >= nc) {
			return nil, fmt.Errorf("core: point %d has label %d, out of range [0,%d)", i, l, nc)
		}
	}
	assigner, err := newAssigner(ds, res, p.DCut, tree)
	if err != nil {
		return nil, err
	}
	return &Model{
		ds:       ds,
		res:      res,
		params:   p,
		algo:     algorithm,
		assigner: assigner,
		fitTime:  fitTime,
	}, nil
}

// Algorithm returns the name of the algorithm that fitted the model.
func (m *Model) Algorithm() string { return m.algo }

// FitTime returns the wall-clock cost of the original fit, preserved
// across Restore.
func (m *Model) FitTime() time.Duration { return m.fitTime }

// Params returns the parameters the model was fitted with.
func (m *Model) Params() Params { return m.params }

// Dataset returns the frozen training dataset. Callers must not mutate it.
func (m *Model) Dataset() *geom.Dataset { return m.ds }

// Result returns the fitted clustering. Callers must not mutate it.
func (m *Model) Result() *Result { return m.res }

// N returns the number of training points.
func (m *Model) N() int { return m.ds.N }

// Dim returns the training dimensionality.
func (m *Model) Dim() int { return m.ds.Dim }

// NumClusters returns the number of fitted clusters.
func (m *Model) NumClusters() int { return m.res.NumClusters() }

// Assign labels one new point: it inherits the cluster of its nearest
// training point, or NoCluster when that neighbor is farther than d_cut
// or is itself noise. On a training point it reproduces the fitted label
// exactly (the nearest neighbor is the point itself). Safe for concurrent
// use.
func (m *Model) Assign(p []float64) (int32, error) {
	return m.assigner.Assign(p)
}

// AssignAll labels a batch of new points in parallel with the given
// worker count (<= 0 means Params.Workers semantics: all CPUs). Safe for
// concurrent use.
func (m *Model) AssignAll(pts [][]float64, workers int) ([]int32, error) {
	if len(pts) == 0 {
		return []int32{}, nil // non-nil: serving marshals this as [], not null
	}
	for i, p := range pts {
		if len(p) != m.ds.Dim {
			return nil, fmt.Errorf("core: point %d has dimension %d, want %d", i, len(p), m.ds.Dim)
		}
	}
	out := make([]int32, len(pts))
	partition.DynamicChunked(len(pts), Params{Workers: workers}.workers(), 32, func(i int) {
		l, _ := m.assigner.Assign(pts[i]) // dims pre-checked above
		out[i] = l
	})
	return out, nil
}

// ModelStats summarizes a fitted model for serving APIs and diagnostics.
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

// Stats returns the model summary.
func (m *Model) Stats() ModelStats {
	noise := 0
	for _, l := range m.res.Labels {
		if l == NoCluster {
			noise++
		}
	}
	s := ModelStats{
		Algorithm: m.algo,
		N:         m.ds.N,
		Dim:       m.ds.Dim,
		Clusters:  m.res.NumClusters(),
		Noise:     noise,
		FitSecs:   m.fitTime.Seconds(),
	}
	s.Timing.Build = m.res.Timing.Build.Seconds()
	s.Timing.Rho = m.res.Timing.Rho.Seconds()
	s.Timing.Delta = m.res.Timing.Delta.Seconds()
	s.Timing.Label = m.res.Timing.Label.Seconds()
	return s
}

// Registered returns all ten framework algorithms — the paper's seven
// evaluated ones in legend order plus the three dropped competitors —
// for serving registries and exhaustive tests.
func Registered() []Algorithm {
	return []Algorithm{
		Scan{}, RtreeScan{}, LSHDDP{}, CFSFDPA{},
		ExDPC{}, ApproxDPC{}, SApproxDPC{},
		FastDPeak{}, DPCG{}, CFSFDPDE{},
	}
}

// AlgorithmByName resolves a paper algorithm name ("Ex-DPC",
// "Approx-DPC", ...) against the full registry; ok is false for unknown
// names.
func AlgorithmByName(name string) (Algorithm, bool) {
	for _, a := range Registered() {
		if a.Name() == name {
			return a, true
		}
	}
	return nil, false
}

// CanonicalParams returns p with every parameter the named algorithm
// ignores zeroed: Seed matters only to the randomized substrates
// (LSH-DDP's projections, the k-means pivots of CFSFDP-A and
// CFSFDP-DE), Epsilon only to S-Approx-DPC (where <= 0 means 1). Two
// parameter sets that canonicalize equally produce identical models, so
// this is the model-cache identity rule; fitting with the canonical
// form gives the same result as fitting with the original.
func CanonicalParams(algorithm string, p Params) Params {
	switch algorithm {
	case "LSH-DDP", "CFSFDP-A", "CFSFDP-DE":
	default:
		p.Seed = 0
	}
	if algorithm == "S-Approx-DPC" {
		p.Epsilon = p.epsilon()
	} else {
		p.Epsilon = 0
	}
	return p
}
