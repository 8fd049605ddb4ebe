package core

import (
	"time"

	"repro/internal/geom"
	"repro/internal/kdtree"
)

// ExDPC is the paper's exact algorithm (§3).
//
// One kd-tree over every point serves the whole fit. The paper counts
// local densities with one range count per point, parallelized with
// dynamic self-scheduling because per-point cost tracks the unknown
// local density. Here one self-join over the tree's leaf pairs
// (kdtree.Tree.SelfCounts) counts them all, still dynamically scheduled,
// over blocks of one leaf: each pair of points is measured once and
// counted for both, and each block walks the tree once instead of each
// point. The counts are the range counts bit for bit. The kernel's
// squared distance is exactly symmetric: per dimension it squares a
// rounded difference, and swapping the two points only flips that
// difference's sign. Its accumulation order is fixed, so from either
// end a pair sums the same terms in the same order.
//
// Dependent points come from the same tree. The paper destroys it and
// re-inserts points in descending density order, querying each before
// its insert, a phase that is inherently sequential and the scalability
// limit Figure 9 exposes. Here each point instead runs its own
// nearest-neighbor walk that only considers points of lower density rank
// and skips every subtree holding none (WalkDependents). The walks are
// independent, so the phase is as parallel as the density phase, and
// the result is exact: Scan's (distance, rank) minimum bit for bit, with
// the lower rank winning exact distance ties, for every worker count.
type ExDPC struct{}

// Name implements Algorithm.
func (ExDPC) Name() string { return "Ex-DPC" }

// Cluster implements Algorithm.
func (a ExDPC) Cluster(pts [][]float64, p Params) (*Result, error) {
	return clusterRows(a, pts, p)
}

// ClusterDataset implements Algorithm.
func (a ExDPC) ClusterDataset(ds *geom.Dataset, p Params) (*Result, error) {
	res, _, err := a.clusterTree(ds, p)
	return res, err
}

// clusterTree implements treeClusterer: the fit's kd-tree outlives it.
func (ExDPC) clusterTree(ds *geom.Dataset, p Params) (*Result, *kdtree.Tree, error) {
	if err := validateInput(ds, p); err != nil {
		return nil, nil, err
	}
	n := ds.N
	res := &Result{
		Rho:   make([]float64, n),
		Delta: make([]float64, n),
		Dep:   make([]int32, n),
	}
	workers := p.workers()

	start := time.Now()
	tree := kdtree.BuildAllWorkers(ds, workers)
	res.Timing.Build = time.Since(start)

	// Local density: one symmetric self-join over the tree's leaf pairs,
	// dynamically scheduled over query blocks.
	start = time.Now()
	selfJoinRho(tree, p.DCut, res.Rho, workers)
	res.Timing.Rho = time.Since(start)

	start = time.Now()
	_, rank := densityRank(res.Rho, workers)
	WalkDependents(tree, rank, tree.Order(), res.Delta, res.Dep, workers)
	res.Timing.Delta = time.Since(start)

	start = time.Now()
	finalize(res, p)
	res.Timing.Label = time.Since(start)
	return res, tree, nil
}
