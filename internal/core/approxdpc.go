package core

import (
	"math"
	"slices"
	"time"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/kdtree"
	"repro/internal/partition"
)

// ApproxDPC is the paper's parameter-free approximation algorithm (§4).
//
// Local densities stay exact but are computed with one *joint* range
// search per grid cell (side d_cut/sqrt(d)): the ball
// B(cp, d_cut + max_{p in c} dist(cp, p)) covers the d_cut-ball of every
// member, so one kd-tree traversal serves the whole cell and the
// per-member counts come from scanning that one result. The paper puts
// cp at the cell center; here cp is the middle of the members' bounding
// box. Any cp covers every member's ball with that radius, and the scan
// decides each count, so the densities are the same; the nearer cp
// shrinks the ball, and a cell whose members are all one point searches
// from that point at d_cut and needs no scan at all (cellDensities). The
// 3-4-d stand-ins hold 1.1-1.3 points per cell at n=20000, so that is
// most cells there.
//
// Dependent points are approximated in O(1) for any point that has a
// denser point within d_cut (in-cell rule via p*(c); neighbor-cell rule
// via N(c) and min-density summaries). The paper resolves the remainder
// P' with s density-sorted subsets, one kd-tree each (Figure 5); here
// each point of P' instead runs Ex-DPC's rank-pruned walk over the tree
// the density phase already built (WalkDependents), so P' gets Ex-DPC's
// dependent point and delta bit for bit, ties included. Theorem 4: the
// cluster centers equal Ex-DPC's for the same parameters.
//
// The density phase is one dynamically scheduled task per grid cell:
// the task runs the cell's joint search, scans the result for its
// members' densities and fills p*(c), min rho and N(c), so each result
// lives only inside its own task. The rule pass and the walks are
// dynamically scheduled as well. The paper's cost-based scheduling of
// this phase (§4.5) measured no gain here (docs/benchmarks.md).
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
	cellDensities(ds, tree, g, res.Rho, p, workers)
	res.Timing.Rho = time.Since(start)

	start = time.Now()
	approxThenExactDependents(g, tree, res, p, workers)
	res.Timing.Delta = time.Since(start)

	start = time.Now()
	finalize(res, p)
	res.Timing.Label = time.Since(start)
	return res, tree, nil
}

// cellDensities computes every point's exact local density and the cell
// summaries p*(c), min rho and N(c), one task per cell: a joint range
// search over a ball that covers every member's d_cut-ball, then one
// scan of its result per member. The ball is centered at the middle cp
// of the members' bounding box (see ApproxDPC). A cell whose members are
// all one point (one member, or exact duplicates) therefore searches
// from that point at exactly d_cut. The kd-tree's leaf kernel abandons
// only sums already above the limit, so the search's strict test is the
// scan's: the result's length is every member's count and its other
// cells are N(c), with no scan.
func cellDensities(ds *geom.Dataset, tree *kdtree.Tree, g *grid.Grid, rho []float64, p Params, workers int) {
	sq := p.DCut * p.DCut
	partition.DynamicWorkers(g.NumCells(), workers, 1, func() func(int) {
		s := newCellSearch(ds.Dim)
		lo := make([]float64, ds.Dim)
		hi := make([]float64, ds.Dim)
		cp := make([]float64, ds.Dim)
		return func(c int) {
			cell := &g.Cells[c]
			copy(lo, ds.AtBuf(int(cell.Points[0]), s.row))
			copy(hi, lo)
			for _, m := range cell.Points[1:] {
				for j, x := range ds.AtBuf(int(m), s.row) {
					lo[j] = min(lo[j], x)
					hi[j] = max(hi[j], x)
				}
			}
			spread := false
			for j := range cp {
				cp[j] = lo[j] + (hi[j]-lo[j])/2
				spread = spread || lo[j] != hi[j]
			}

			best := int32(-1)
			bestRho := math.Inf(-1)
			minRho := math.Inf(1)
			setRho := func(m int32, count int) {
				v := float64(count) + jitter(int(m))
				rho[m] = v
				if v > bestRho {
					bestRho, best = v, m
				}
				minRho = min(minRho, v)
			}
			if !spread {
				// cp is every member's own row.
				r := s.search(tree, cp, p.DCut)
				for _, m := range cell.Points {
					setRho(m, len(r))
				}
				cell.Best, cell.MinRho = best, minRho
				cell.Neighbors = s.neighborCells(g, int32(c), r)
				return
			}

			var maxSq float64
			for _, m := range cell.Points {
				maxSq = max(maxSq, geom.SqDistToIdx(ds, cp, m))
			}
			r := s.search(tree, cp, p.DCut+math.Sqrt(maxSq))
			for _, m := range cell.Points {
				pm := ds.AtBuf(int(m), s.row)
				count := 0
				// The full sum, not the early exit: most of r lies within
				// d_cut of a member, so an exit seldom fires, and its
				// unpredictable branch costs more than it saves.
				for _, x := range r {
					if geom.SqDistToIdx(ds, pm, x) < sq {
						count++
					}
				}
				setRho(m, count)
			}
			cell.Best, cell.MinRho = best, minRho
			// N(c): cells of points outside c within d_cut of p*(c).
			pb := ds.AtBuf(int(best), s.row)
			near := r[:0]
			for _, x := range r {
				if geom.SqDistToIdx(ds, pb, x) < sq {
					near = append(near, x)
				}
			}
			cell.Neighbors = s.neighborCells(g, int32(c), near)
		}
	})
}

// cellSearch is one worker's buffers for the per-cell range searches of
// Approx-DPC and S-Approx-DPC.
type cellSearch struct {
	row   []float64 // a widened dataset row
	ids   []int32   // the last search's result
	cells []int32   // the cells of a result
}

func newCellSearch(dim int) *cellSearch {
	return &cellSearch{row: make([]float64, dim)}
}

// search returns the ids of the tree points strictly within r of q, in
// a buffer the next search reuses.
func (s *cellSearch) search(tree *kdtree.Tree, q []float64, r float64) []int32 {
	s.ids = s.ids[:0]
	tree.RangeSearch(q, r, func(id int32, _ float64) {
		s.ids = append(s.ids, id)
	})
	return s.ids
}

// neighborCells returns N(c) for the points ids within d_cut of c's
// representative: their cells other than c, ascending and distinct, in
// a slice of its own. Ascending order makes the first of equally good
// neighbor cells independent of the tree's visit order.
func (s *cellSearch) neighborCells(g *grid.Grid, c int32, ids []int32) []int32 {
	s.cells = s.cells[:0]
	for _, x := range ids {
		if xc := g.PointCell[x]; xc != c {
			s.cells = append(s.cells, xc)
		}
	}
	slices.Sort(s.cells)
	return slices.Clone(slices.Compact(s.cells))
}

// approxThenExactDependents applies the two O(1) approximation rules of
// §4.3 and resolves the remaining set P' exactly: one rank-pruned walk
// per point of P' over the fit's whole-dataset tree (WalkDependents).
func approxThenExactDependents(g *grid.Grid, tree *kdtree.Tree, res *Result, p Params, workers int) {
	n := len(res.Rho)
	unresolvedMark := int32(-2)
	// Rule pass, parallel over cells (each point is touched by exactly its
	// own cell's task).
	partition.Dynamic(g.NumCells(), workers, func(c int) {
		cell := &g.Cells[c]
		for _, i := range cell.Points {
			if i != cell.Best {
				// In-cell rule: p*(c) is denser and within the cell
				// diagonal = d_cut.
				res.Dep[i] = cell.Best
				res.Delta[i] = p.DCut
				continue
			}
			// Neighbor-cell rule for p*(c).
			res.Dep[i] = unresolvedMark
			for _, nb := range cell.Neighbors {
				nc := &g.Cells[nb]
				if nc.MinRho > res.Rho[i] {
					res.Dep[i] = nc.Best
					res.Delta[i] = p.DCut
					break
				}
			}
		}
	})

	var unresolved []int32
	for i := int32(0); i < int32(n); i++ {
		if res.Dep[i] == unresolvedMark {
			unresolved = append(unresolved, i)
		}
	}
	_, rank := densityRank(res.Rho, workers)
	WalkDependents(tree, rank, unresolved, res.Delta, res.Dep, workers)
}
