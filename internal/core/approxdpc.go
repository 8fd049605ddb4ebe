package core

import (
	"math"
	"sort"
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
// B(cp, d_cut + max_{p in c} dist(cp, p)) around the cell center covers
// the d_cut-ball of every member, so one kd-tree traversal serves the
// whole cell and the per-member counts come from scanning that one result.
//
// Dependent points are approximated in O(1) for any point that has a
// denser point within d_cut (in-cell rule via p*(c); neighbor-cell rule
// via N(c) and min-density summaries); the remainder P' gets exact
// dependent points from s density-sorted subsets, each indexed by its own
// kd-tree, with the case (i)/(ii)/(iii) subset pruning of Figure 5.
// Theorem 4: the cluster centers equal Ex-DPC's for the same parameters.
//
// Both phases are parallelized with the cost-based LPT greedy assignment
// of §4.5 (costs |P(c)|, then |P(c)|*|R(c)|, then cost_dep).
//
// The zero value runs the paper's configuration. Sched and SubsetS exist
// for the ablation benchmarks only: Sched swaps the cost-based LPT
// assignment for plain dynamic or static scheduling, and SubsetS
// overrides the Equation (2) choice of s in the exact dependent-point
// phase.
type ApproxDPC struct {
	// Sched selects the parallel scheduling strategy (default SchedLPT).
	Sched SchedMode
	// SubsetS overrides s for the exact dependent-point phase; 0 means
	// Equation (2).
	SubsetS int
}

// SchedMode selects how parallel tasks are distributed to workers.
type SchedMode int

// Scheduling strategies for the ablation study.
const (
	// SchedLPT is the paper's cost-based 3/2-approximation greedy.
	SchedLPT SchedMode = iota
	// SchedDynamic ignores cost estimates and self-schedules tasks.
	SchedDynamic
	// SchedStatic assigns equal-count contiguous blocks (no balancing).
	SchedStatic
)

// schedule runs fn over len(costs) tasks under the selected strategy.
func (m SchedMode) schedule(costs []float64, workers int, fn func(i int)) {
	switch m {
	case SchedDynamic:
		partition.Dynamic(len(costs), workers, fn)
	case SchedStatic:
		staticPartition(len(costs), workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				fn(i)
			}
		})
	default:
		partition.RunLPT(costs, workers, fn)
	}
}

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
func (a ApproxDPC) clusterTree(ds *geom.Dataset, p Params) (*Result, *kdtree.Tree, error) {
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
	tree := kdtree.BuildAll(ds)
	g := grid.Build(ds, grid.SideForDCut(p.DCut, d))
	res.Timing.Build = time.Since(start)

	start = time.Now()
	rangeResults := jointRangeSearch(ds, tree, g, p, workers, a.Sched)
	computeDensities(ds, g, rangeResults, res.Rho, p, workers, a.Sched)
	res.Timing.Rho = time.Since(start)

	start = time.Now()
	approxThenExactDependents(ds, g, res, p, workers, d, a.Sched, a.SubsetS)
	res.Timing.Delta = time.Since(start)

	start = time.Now()
	finalize(res, p)
	res.Timing.Label = time.Since(start)
	return res, tree, nil
}

// jointRangeSearch runs one expanded-ball range search per cell
// (phase 1 of §4.5; cost estimate |P(c)|, LPT-partitioned).
func jointRangeSearch(ds *geom.Dataset, tree *kdtree.Tree, g *grid.Grid, p Params, workers int, sched SchedMode) [][]int32 {
	nc := g.NumCells()
	results := make([][]int32, nc)
	costs := make([]float64, nc)
	for c := range costs {
		costs[c] = float64(len(g.Cells[c].Points))
	}
	sched.schedule(costs, workers, func(c int) {
		cell := &g.Cells[c]
		cp := g.Center(int32(c))
		var maxSq float64
		for _, m := range cell.Points {
			if sq := geom.SqDistToIdx(ds, cp, m); sq > maxSq {
				maxSq = sq
			}
		}
		radius := p.DCut + math.Sqrt(maxSq)
		ids := make([]int32, 0, 2*len(cell.Points))
		tree.RangeSearch(cp, radius, func(id int32, _ float64) {
			ids = append(ids, id)
		})
		results[c] = ids
	})
	return results
}

// computeDensities scans each cell's joint result to obtain exact local
// densities for all members and fills the cell summaries p*(c), min rho,
// and N(c) (phase 2 of §4.5; cost estimate |P(c)|*|R(c)|).
func computeDensities(ds *geom.Dataset, g *grid.Grid, rangeResults [][]int32, rho []float64, p Params, workers int, sched SchedMode) {
	sq := p.DCut * p.DCut
	nc := g.NumCells()
	costs := make([]float64, nc)
	for c := range costs {
		costs[c] = float64(len(g.Cells[c].Points)) * float64(len(rangeResults[c]))
	}
	sched.schedule(costs, workers, func(c int) {
		cell := &g.Cells[c]
		r := rangeResults[c]
		best := int32(-1)
		bestRho := math.Inf(-1)
		minRho := math.Inf(1)
		for _, m := range cell.Points {
			pm := ds.At(int(m))
			count := 0
			for _, x := range r {
				if v, ok := geom.SqDistToIdxPartial(ds, pm, x, sq); ok && v < sq {
					count++
				}
			}
			v := float64(count) + jitter(int(m))
			rho[m] = v
			if v > bestRho {
				bestRho, best = v, m
			}
			if v < minRho {
				minRho = v
			}
		}
		cell.Best = best
		cell.MinRho = minRho
		// N(c): cells of points outside c within d_cut of p*(c).
		pb := ds.At(int(best))
		seen := make(map[int32]struct{})
		for _, x := range r {
			xc := g.PointCell[x]
			if xc == int32(c) {
				continue
			}
			if _, ok := seen[xc]; ok {
				continue
			}
			if geom.SqDistToIdx(ds, pb, x) < sq {
				seen[xc] = struct{}{}
				cell.Neighbors = append(cell.Neighbors, xc)
			}
		}
		sort.Slice(cell.Neighbors, func(a, b int) bool { return cell.Neighbors[a] < cell.Neighbors[b] })
	})
}

// approxThenExactDependents applies the two O(1) approximation rules of
// §4.3 and resolves the remaining set P' exactly with s density-sorted
// kd-tree subsets.
func approxThenExactDependents(ds *geom.Dataset, g *grid.Grid, res *Result, p Params, workers, d int, sched SchedMode, subsetS int) {
	n := ds.N
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
	exactDependentsOpt(ds, res.Rho, unresolved, res.Delta, res.Dep, workers, d, sched, subsetS)
}

// exactDependents computes exact dependent points for the given subset of
// points using the s density-sorted kd-tree partitions of §4.3. It is
// shared with S-Approx-DPC's fallback path (there the universe is the
// picked set). universe entries are the points eligible to *be* dependent
// points; here that is all of P, identified implicitly by len(rho).
func exactDependents(ds *geom.Dataset, rho []float64, queries []int32, delta []float64, dep []int32, workers, d int) {
	exactDependentsOpt(ds, rho, queries, delta, dep, workers, d, SchedLPT, 0)
}

// exactDependentsOpt is exactDependents with the ablation knobs exposed.
func exactDependentsOpt(ds *geom.Dataset, rho []float64, queries []int32, delta []float64, dep []int32, workers, d int, sched SchedMode, subsetS int) {
	n := len(rho)
	if len(queries) == 0 {
		return
	}
	// Ascending-density order and rank of every point.
	asc := make([]int32, n)
	for i := range asc {
		asc[i] = int32(i)
	}
	sort.Slice(asc, func(a, b int) bool { return rho[asc[a]] < rho[asc[b]] })
	rank := make([]int32, n)
	for r, i := range asc {
		rank[i] = int32(r)
	}

	// Equation (2): n/s = O((s-1)(n/s)^{1-1/d})  =>  s ~ n^{1/(d+1)}.
	s := subsetS
	if s <= 0 {
		s = int(math.Round(math.Pow(float64(n), 1/float64(d+1))))
	}
	if s < 2 {
		s = 2
	}
	if s > n {
		s = n
	}
	chunk := (n + s - 1) / s
	subsets := make([][]int32, 0, s)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		subsets = append(subsets, asc[lo:hi])
	}
	trees := make([]*kdtree.Tree, len(subsets))
	partition.Dynamic(len(subsets), workers, func(k int) {
		ids := make([]int32, len(subsets[k]))
		copy(ids, subsets[k])
		trees[k] = kdtree.Build(ds, ids)
	})

	// cost_dep of §4.5: own-subset scan when case (ii) applies, plus one NN
	// search per higher subset.
	nOverS := float64(chunk)
	nnCost := math.Pow(nOverS, 1-1/float64(d))
	costs := make([]float64, len(queries))
	for qi, i := range queries {
		k := int(rank[i]) / chunk
		m := len(subsets) - k // subsets that may hold the dependent point
		costs[qi] = nOverS + float64(m-1)*nnCost
	}

	sched.schedule(costs, workers, func(qi int) {
		i := queries[qi]
		pi := ds.At(int(i))
		k := int(rank[i]) / chunk
		bestSq := math.Inf(1)
		best := NoDependent
		// Case (ii): the subset containing p_i mixes densities; scan it.
		for _, j := range subsets[k] {
			if rho[j] <= rho[i] {
				continue
			}
			if sq, ok := geom.SqDistToIdxPartial(ds, pi, j, bestSq); ok && sq < bestSq {
				bestSq, best = sq, j
			}
		}
		// Case (i): all higher subsets consist purely of denser points.
		// The running best distance bounds each successive tree search, so
		// once any nearby candidate is found the remaining trees are
		// pruned almost entirely.
		for t := k + 1; t < len(subsets); t++ {
			if id, sq := trees[t].NNWithBound(pi, bestSq); id >= 0 {
				bestSq, best = sq, id
			}
		}
		dep[i] = best
		if best == NoDependent {
			delta[i] = math.Inf(1) // the global density peak
		} else {
			delta[i] = math.Sqrt(bestSq)
		}
	})
}
