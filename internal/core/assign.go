package core

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/kdtree"
)

// Assigner classifies points that were not part of the clustered dataset:
// a new point inherits the cluster of its nearest neighbor among the
// clustered points, or becomes noise when that neighbor is farther than
// d_cut (the natural out-of-sample extension of the dependency rule —
// in-cluster points are within d_cut of their dependency chain).
//
// Build one with NewAssigner after clustering; Assign is safe for
// concurrent use.
type Assigner struct {
	tree   *kdtree.Tree
	labels []int32
	dcut   float64
	dim    int
}

// NewAssigner indexes a clustering for out-of-sample assignment. pts and
// res must be the dataset and result of one Cluster call; dcut should be
// the d_cut used there. It copies the rows into a flat dataset; callers
// already holding one should use NewAssignerDataset.
func NewAssigner(pts [][]float64, res *Result, dcut float64) (*Assigner, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	ds, err := geom.FromRows(pts)
	if err != nil {
		return nil, err
	}
	return NewAssignerDataset(ds, res, dcut)
}

// NewAssignerDataset indexes a flat dataset for out-of-sample assignment
// without copying the points.
func NewAssignerDataset(ds *geom.Dataset, res *Result, dcut float64) (*Assigner, error) {
	return newAssigner(ds, res, dcut, nil)
}

// newAssigner is NewAssignerDataset adopting tree, a read-only kd-tree
// over every point of ds, when non-nil.
func newAssigner(ds *geom.Dataset, res *Result, dcut float64, tree *kdtree.Tree) (*Assigner, error) {
	if ds.N == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	if len(res.Labels) != ds.N {
		return nil, fmt.Errorf("core: result has %d labels for %d points", len(res.Labels), ds.N)
	}
	if dcut <= 0 {
		return nil, fmt.Errorf("core: non-positive dcut")
	}
	if tree == nil {
		tree = kdtree.BuildAll(ds)
	} else if tree.Len() != ds.N {
		return nil, fmt.Errorf("core: kd-tree holds %d points for %d", tree.Len(), ds.N)
	}
	return &Assigner{
		tree:   tree,
		labels: res.Labels,
		dcut:   dcut,
		dim:    ds.Dim,
	}, nil
}

// Assign returns the cluster label for a new point, or NoCluster when the
// nearest clustered point is farther than d_cut or is itself noise.
func (a *Assigner) Assign(p []float64) (int32, error) {
	if len(p) != a.dim {
		return NoCluster, fmt.Errorf("core: point has dimension %d, want %d", len(p), a.dim)
	}
	id, sq := a.tree.NN(p)
	if id < 0 || math.Sqrt(sq) > a.dcut {
		return NoCluster, nil
	}
	return a.labels[id], nil
}

// AssignAll labels a batch of new points.
func (a *Assigner) AssignAll(pts [][]float64) ([]int32, error) {
	out := make([]int32, len(pts))
	for i, p := range pts {
		l, err := a.Assign(p)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		out[i] = l
	}
	return out, nil
}

// SuggestCenters ranks points by gamma = rho * delta (the standard
// product heuristic on the decision graph) and returns the indices of the
// top k candidates in descending gamma order. Points below rhoMin are
// skipped; infinite deltas rank first. This complements SuggestDeltaMin
// when the decision graph has no single clean delta gap.
func SuggestCenters(res *Result, k int, rhoMin float64) []int32 {
	type cand struct {
		id    int32
		gamma float64
		inf   bool
	}
	var cands []cand
	for i := range res.Rho {
		if res.Rho[i] < rhoMin {
			continue
		}
		c := cand{id: int32(i)}
		if math.IsInf(res.Delta[i], 1) {
			c.inf = true
		} else {
			c.gamma = res.Rho[i] * res.Delta[i]
		}
		cands = append(cands, c)
	}
	// Selection sort of the top k keeps this O(n*k) without extra deps;
	// k is tiny in practice.
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int32, 0, k)
	used := make(map[int]bool, k)
	for len(out) < k {
		best := -1
		for i, c := range cands {
			if used[i] {
				continue
			}
			if best == -1 {
				best = i
				continue
			}
			b := cands[best]
			if (c.inf && !b.inf) || (c.inf == b.inf && c.gamma > b.gamma) {
				best = i
			}
		}
		used[best] = true
		out = append(out, cands[best].id)
	}
	return out
}
