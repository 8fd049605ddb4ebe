package core

import (
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/kdtree"
	"repro/internal/partition"
)

// ApproxDPC is the paper's parameter-free approximation algorithm (§4).
//
// Local densities stay exact. The paper counts them with one joint range
// search per grid cell (side d_cut/sqrt(d)) whose result every member
// scans; here they are Ex-DPC's, from the symmetric self-join over the
// fit's kd-tree (selfJoinRho), which measures each close pair once. One
// O(n) pass over the grid then sets each cell's p*(c), its densest
// member, and its minimum member density (cellSummaries).
//
// Dependent points are approximated in O(1) for any point that has a
// denser point within d_cut. In-cell rule: every other member of c
// depends on p*(c), within the cell diagonal d_cut. Neighbor-cell rule:
// p*(c) depends on p*(c') for the lowest cell id c' holding a point
// strictly within d_cut of p*(c) whose minimum density exceeds p*(c)'s
// (ruleCell). The paper resolves the remainder P' with s density-sorted
// subsets, one kd-tree each (Figure 5); here each point of P' instead
// runs Ex-DPC's rank-pruned walk over the fit's tree (WalkDependents),
// so P' gets Ex-DPC's dependent point and delta bit for bit, ties
// included. Theorem 4: the cluster centers equal Ex-DPC's for the same
// parameters.
//
// The self-join, the rule pass (over the points in kd-tree order) and
// the walks are dynamically scheduled. The paper's cost-based scheduling of the
// density phase (§4.5) measured no gain here (docs/benchmarks.md).
type ApproxDPC struct{}

// Name implements Algorithm.
func (ApproxDPC) Name() string { return "Approx-DPC" }

// Cluster implements Algorithm.
func (a ApproxDPC) Cluster(pts [][]float64, p Params) (*Result, error) {
	return clusterRows(a, pts, p)
}

// ClusterDataset implements Algorithm.
func (a ApproxDPC) ClusterDataset(ds *geom.Dataset, p Params) (*Result, error) {
	res, _, err := a.clusterTree(ds, p)
	return res, err
}

// clusterTree implements treeClusterer: the fit's kd-tree outlives it.
func (ApproxDPC) clusterTree(ds *geom.Dataset, p Params) (*Result, *kdtree.Tree, error) {
	if err := validateInput(ds, p); err != nil {
		return nil, nil, err
	}
	n := ds.N
	d := ds.Dim
	res := &Result{
		Rho:   make([]float64, n),
		Delta: make([]float64, n),
		Dep:   make([]int32, n),
	}
	workers := p.workers()

	start := time.Now()
	tree := kdtree.BuildAllWorkers(ds, workers)
	g := grid.Build(ds, grid.SideForDCut(p.DCut, d))
	res.Timing.Build = time.Since(start)

	start = time.Now()
	counts := selfJoinRho(tree, p.DCut, res.Rho, workers)
	cellSummaries(g, res.Rho)
	res.Timing.Rho = time.Since(start)

	start = time.Now()
	approxThenExactDependents(ds, g, tree, res, counts, p, workers)
	res.Timing.Delta = time.Since(start)

	start = time.Now()
	finalize(res, p)
	res.Timing.Label = time.Since(start)
	return res, tree, nil
}

// cellSummaries sets every cell's p*(c), the first of its members with
// the strictly largest rho, and its minimum member density.
func cellSummaries(g *grid.Grid, rho []float64) {
	for c := range g.Cells {
		cell := &g.Cells[c]
		bestRho, minRho := math.Inf(-1), math.Inf(1)
		for _, m := range cell.Points {
			if rho[m] > bestRho {
				bestRho, cell.Best = rho[m], m
			}
			minRho = min(minRho, rho[m])
		}
		cell.MinRho = minRho
	}
}

// ruleCell returns the cell c' whose p*(c') the neighbor-cell rule
// gives b = p*(c) as its dependent point, or -1 if none qualifies: the
// lowest id of the cells that hold a point strictly within d_cut of b
// and whose minimum density exceeds rho(b). Taking the lowest id makes
// the choice independent of the tree's visit order. counts are the
// d_cut counts; row is scratch for a widened dataset row.
func ruleCell(ds *geom.Dataset, tree *kdtree.Tree, g *grid.Grid, rho []float64, counts []int32, b int32, dcut float64, row []float64) int32 {
	if counts[b] == 1 {
		// Nothing but b itself lies within d_cut.
		return -1
	}
	rb := rho[b]
	nb := int32(math.MaxInt32)
	tree.RangeSearch(ds.AtBuf(int(b), row), dcut, func(x int32, _ float64) {
		// Only a point denser than b can lie in a qualifying cell, whose
		// members are all denser than b. No member of c is, so c itself
		// never qualifies.
		if rho[x] > rb {
			if xc := g.PointCell[x]; xc < nb && g.Cells[xc].MinRho > rb {
				nb = xc
			}
		}
	})
	if nb == math.MaxInt32 {
		return -1
	}
	return nb
}

// approxThenExactDependents applies the two O(1) approximation rules of
// §4.3 and resolves the remaining set P' exactly: one rank-pruned walk
// per point of P' over the fit's whole-dataset tree (WalkDependents).
// Both passes visit the points in tree order, so consecutive searches
// and walks start near each other and share the tree's cached rows.
func approxThenExactDependents(ds *geom.Dataset, g *grid.Grid, tree *kdtree.Tree, res *Result, counts []int32, p Params, workers int) {
	const unresolvedMark = int32(-2)
	order := tree.Order()
	partition.DynamicWorkers(len(order), workers, 64, func() func(int) {
		row := make([]float64, ds.Dim)
		return func(k int) {
			i := order[k]
			best := g.Cells[g.PointCell[i]].Best
			if i != best {
				// In-cell rule: p*(c) is denser and within the cell
				// diagonal = d_cut.
				res.Dep[i], res.Delta[i] = best, p.DCut
				return
			}
			// Neighbor-cell rule for p*(c) itself.
			res.Dep[i] = unresolvedMark
			if nb := ruleCell(ds, tree, g, res.Rho, counts, i, p.DCut, row); nb >= 0 {
				res.Dep[i], res.Delta[i] = g.Cells[nb].Best, p.DCut
			}
		}
	})

	var unresolved []int32
	for _, i := range order {
		if res.Dep[i] == unresolvedMark {
			unresolved = append(unresolved, i)
		}
	}
	_, rank := densityRank(res.Rho, workers)
	WalkDependents(tree, rank, unresolved, res.Delta, res.Dep, workers)
}
