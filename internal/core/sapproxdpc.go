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

// SApproxDPC is the paper's tunable approximation algorithm (§5). It
// converts point clustering into cell clustering: the grid G' has cell
// side eps*d_cut/sqrt(d), one deterministic "picked" point represents each
// cell, and only picked points get exact local densities (one range search
// per cell). Non-picked points simply depend on their cell's picked point,
// so both the number of range searches and the dependent-point work shrink
// as eps grows — the time/accuracy trade of Table 5.
//
// Picked points resolve their dependent points in two phases: first via
// occupied neighbor cells N(c) (distance bounded by (1+eps)d_cut), then —
// for the set P'_pick with no denser picked point nearby — via temporary
// clusters with triangle-inequality pruning. When |P'_pick|^2 exceeds
// O(n), where the paper reuses Approx-DPC's s-subset method, P'_pick
// instead runs the rank-pruned walk over the fit's kd-tree
// (WalkDependents) keyed so that only picked points are candidates: the
// nearest denser picked point, the lower density rank winning a tie.
// All phases are dynamically scheduled.
type SApproxDPC struct{}

// Name implements Algorithm.
func (SApproxDPC) Name() string { return "S-Approx-DPC" }

// Cluster implements Algorithm.
func (a SApproxDPC) Cluster(pts [][]float64, p Params) (*Result, error) {
	return clusterRows(a, pts, p)
}

// ClusterDataset implements Algorithm.
func (a SApproxDPC) ClusterDataset(ds *geom.Dataset, p Params) (*Result, error) {
	res, _, err := a.clusterTree(ds, p)
	return res, err
}

// clusterTree implements treeClusterer: the fit's kd-tree outlives it.
func (a SApproxDPC) clusterTree(ds *geom.Dataset, p Params) (*Result, *kdtree.Tree, error) {
	if err := validateInput(ds, p); err != nil {
		return nil, nil, err
	}
	n := ds.N
	d := ds.Dim
	eps := p.epsilon()
	res := &Result{
		Rho:   make([]float64, n),
		Delta: make([]float64, n),
		Dep:   make([]int32, n),
	}
	workers := p.workers()

	start := time.Now()
	tree := kdtree.BuildAllWorkers(ds, workers)
	g := grid.Build(ds, eps*grid.SideForDCut(p.DCut, d))
	res.Timing.Build = time.Since(start)

	// Picked point of every cell: the first member in dataset order
	// ("we can deterministically decide p in an arbitrary way").
	nc := g.NumCells()
	picked := make([]int32, nc)
	for c := range picked {
		picked[c] = g.Cells[c].Points[0]
	}

	// Local densities: one range search per cell from the picked point;
	// N(c) falls out of the same search. Dynamically scheduled like
	// Ex-DPC's density phase (§5, "Implementation for parallel processing").
	start = time.Now()
	partition.DynamicWorkers(nc, workers, 1, func() func(int) {
		s := newCellSearch(ds.Dim)
		return func(c int) {
			pi := picked[c]
			r := s.search(tree, ds.AtBuf(int(pi), s.row), p.DCut)
			g.Cells[c].Neighbors = s.neighborCells(g, int32(c), r)
			res.Rho[pi] = float64(len(r)) + jitter(int(pi))
		}
	})
	// Non-picked points inherit the picked density (rho_min is "not
	// applicable" to them; inheriting makes the noise rule agree with
	// their representative) and depend on the picked point at a distance
	// of at most the cell diagonal eps*d_cut. The recorded delta is capped
	// at d_cut so an eps > 1 cannot fabricate cluster centers.
	nonPickedDelta := math.Min(eps, 1) * p.DCut
	partition.Dynamic(nc, workers, func(c int) {
		pi := picked[c]
		for _, m := range g.Cells[c].Points {
			if m == pi {
				continue
			}
			res.Rho[m] = res.Rho[pi]
			res.Dep[m] = pi
			res.Delta[m] = nonPickedDelta
		}
	})
	res.Timing.Rho = time.Since(start)

	start = time.Now()
	// First phase: a picked point takes the nearest denser picked point in
	// N(c), if any; the distance is bounded by (1+eps)d_cut.
	const unresolvedMark = int32(-2)
	partition.Dynamic(nc, workers, func(c int) {
		pi := picked[c]
		bestSq := math.Inf(1)
		best := unresolvedMark
		for _, nb := range g.Cells[c].Neighbors {
			pj := picked[nb]
			if res.Rho[pj] <= res.Rho[pi] {
				continue
			}
			if v := geom.SqDistIdx(ds, pi, pj); v < bestSq {
				bestSq, best = v, pj
			}
		}
		res.Dep[pi] = best
		if best != unresolvedMark {
			res.Delta[pi] = math.Sqrt(bestSq)
		}
	})

	var unresolved []int32 // P'_pick
	for _, pi := range picked {
		if res.Dep[pi] == unresolvedMark {
			unresolved = append(unresolved, pi)
		}
	}

	if len(unresolved)*len(unresolved) > 4*n {
		// |P'_pick|^2 exceeds O(n): resolve P'_pick exactly with the
		// rank-pruned walk over the picked points.
		sApproxWalkFallback(tree, res, picked, unresolved, workers)
	} else {
		sApproxTemporaryClusters(ds, g, res, picked, unresolved, workers)
	}
	res.Timing.Delta = time.Since(start)

	start = time.Now()
	finalize(res, p)
	res.Timing.Label = time.Since(start)
	return res, tree, nil
}

// sApproxTemporaryClusters implements the second phase of §5: temporary
// clusters rooted at P'_pick, radii r_i, brute-force nearest denser root
// p', then triangle-inequality pruning dist(p_i,p_k) - r_k <= dist(p_i,p')
// over candidate clusters.
func sApproxTemporaryClusters(ds *geom.Dataset, g *grid.Grid, res *Result, picked, unresolved []int32, workers int) {
	// Temporary cluster of every picked point = the P'_pick root its
	// first-phase dependency chain reaches. Memoized chain following.
	root := make(map[int32]int32, len(picked))
	var chase func(i int32) int32
	chase = func(i int32) int32 {
		if r, ok := root[i]; ok {
			return r
		}
		d := res.Dep[i]
		var r int32
		if d < 0 { // unresolved mark or peak: i is itself a root
			r = i
		} else {
			r = chase(d)
		}
		root[i] = r
		return r
	}
	members := make(map[int32][]int32, len(unresolved))
	radius := make(map[int32]float64, len(unresolved))
	for _, pi := range picked {
		r := chase(pi)
		members[r] = append(members[r], pi)
	}
	for r, ms := range members {
		var maxSq float64
		for _, m := range ms {
			if v := geom.SqDistIdx(ds, r, m); v > maxSq {
				maxSq = v
			}
		}
		radius[r] = math.Sqrt(maxSq)
	}

	partition.Dynamic(len(unresolved), workers, func(k int) {
		pi := unresolved[k]
		// p': nearest root with higher density (brute force over P'_pick).
		best, bestSq := nearestDenser(ds, res.Rho, pi, unresolved, NoDependent, math.Inf(1))
		if best == NoDependent {
			// Global picked-density peak.
			res.Dep[pi] = NoDependent
			res.Delta[pi] = math.Inf(1)
			return
		}
		dPrime := math.Sqrt(bestSq)
		// Prune temporary clusters that cannot beat p', then scan
		// survivors. Dependency chains always point to denser points, so a
		// root is the densest member of its cluster and rho_k <= rho_i
		// prunes the whole cluster; the geometric test is the paper's
		// dist(p_i, p_k) - r_k > dist(p_i, p').
		for rt, ms := range members {
			if res.Rho[rt] <= res.Rho[pi] {
				continue
			}
			if geom.DistIdx(ds, pi, rt)-radius[rt] > dPrime {
				continue
			}
			for _, m := range ms {
				if res.Rho[m] <= res.Rho[pi] {
					continue
				}
				if v := geom.SqDistIdx(ds, pi, m); v < bestSq || (v == bestSq && m < best) {
					bestSq, best = v, m
				}
			}
		}
		res.Dep[pi] = best
		res.Delta[pi] = math.Sqrt(bestSq)
	})
}

// sApproxWalkFallback resolves P'_pick exactly over the picked points:
// each picked point is keyed by its density rank among picked points and
// every other point by math.MaxInt32, so the rank-pruned walk over the
// fit's whole-dataset tree (WalkDependents) returns the nearest denser
// picked point, the lower rank winning an exact distance tie.
func sApproxWalkFallback(tree *kdtree.Tree, res *Result, picked, unresolved []int32, workers int) {
	byRho := make([]float64, len(picked))
	for k, pi := range picked {
		byRho[k] = res.Rho[pi]
	}
	key := make([]int32, len(res.Rho))
	for i := range key {
		key[i] = math.MaxInt32
	}
	for r, k := range densityOrder(byRho, workers) {
		key[picked[k]] = int32(r)
	}
	WalkDependents(tree, key, unresolved, res.Delta, res.Dep, workers)
}

// cellSearch is one worker's buffers for S-Approx-DPC's per-cell range
// searches.
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
// picked point: their cells other than c, ascending and distinct, in a
// slice of its own. Ascending order makes the first of equally near
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
