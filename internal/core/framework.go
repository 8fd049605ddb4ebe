package core

import (
	"math"
	"sort"
	"sync"

	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/partition"
)

// finalize performs the steps every algorithm shares after rho/delta/dep
// are known: noise detection, cluster-center selection (Definitions 4-5),
// and label propagation along the dependency forest (§2.2 step 4).
//
// Labels are assigned by memoized chain following rather than the simpler
// descending-density sweep because S-Approx-DPC lets a non-picked point
// depend on a picked point of *lower* density; chain following handles
// both shapes in O(n).
func finalize(res *Result, p Params) {
	n := len(res.Rho)
	res.Labels = make([]int32, n)
	const unknown = int32(-2)
	for i := range res.Labels {
		res.Labels[i] = unknown
	}

	// Centers in ascending point-index order so cluster ids are stable
	// across algorithms that agree on the center set (Theorem 4 checks).
	res.Centers = res.Centers[:0]
	for i := 0; i < n; i++ {
		if res.Rho[i] >= p.RhoMin && res.Delta[i] >= p.DeltaMin {
			res.Labels[i] = int32(len(res.Centers))
			res.Centers = append(res.Centers, int32(i))
		}
	}
	for i := 0; i < n; i++ {
		if res.Rho[i] < p.RhoMin {
			res.Labels[i] = NoCluster // noise overrides everything
		}
	}

	// Propagate: each unknown point inherits the label at the end of its
	// dependency chain. Paths are written back so total work is O(n).
	var path []int32
	for i := 0; i < n; i++ {
		if res.Labels[i] != unknown {
			continue
		}
		path = path[:0]
		cur := int32(i)
		for res.Labels[cur] == unknown {
			path = append(path, cur)
			nxt := res.Dep[cur]
			if nxt < 0 || len(path) > n {
				// Headless chain (a density peak that is not a center, or a
				// defensive cycle guard): everything on it is unclustered.
				res.Labels[cur] = NoCluster
				break
			}
			cur = nxt
		}
		l := res.Labels[cur]
		for _, q := range path {
			res.Labels[q] = l
		}
	}
}

// densityOrder returns point indices sorted by descending rho (ties —
// impossible after jitter, but harmless — break on ascending index).
// Every algorithm that scans "points with higher density" uses this
// order. The comparator is a strict total order, so the sorted
// permutation is unique and the parallel chunk-sort + pairwise-merge
// below returns byte-identical output for every worker count.
func densityOrder(rho []float64, workers int) []int32 {
	n := len(rho)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	less := func(a, b int32) bool {
		if rho[a] != rho[b] {
			return rho[a] > rho[b]
		}
		return a < b
	}
	if workers <= 1 || n < 1<<14 {
		sort.Slice(order, func(x, y int) bool { return less(order[x], order[y]) })
		return order
	}

	// Sort `workers` contiguous chunks concurrently…
	step := (n + workers - 1) / workers
	bounds := make([]int, 0, workers+1)
	for lo := 0; lo < n; lo += step {
		bounds = append(bounds, lo)
	}
	bounds = append(bounds, n)
	var wg sync.WaitGroup
	for c := 0; c+1 < len(bounds); c++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			s := order[lo:hi]
			sort.Slice(s, func(x, y int) bool { return less(s[x], s[y]) })
		}(bounds[c], bounds[c+1])
	}
	wg.Wait()

	// …then merge adjacent runs pairwise until one remains, ping-ponging
	// between the two buffers.
	buf := make([]int32, n)
	src, dst := order, buf
	for len(bounds) > 2 {
		nb := make([]int, 0, len(bounds)/2+2)
		var mg sync.WaitGroup
		for c := 0; c+2 < len(bounds); c += 2 {
			lo, mid, hi := bounds[c], bounds[c+1], bounds[c+2]
			nb = append(nb, lo)
			mg.Add(1)
			go func(lo, mid, hi int) {
				defer mg.Done()
				mergeRuns(dst[lo:hi], src[lo:mid], src[mid:hi], less)
			}(lo, mid, hi)
		}
		if len(bounds)%2 == 0 {
			// Odd run count: the last run has no partner this round.
			lo, hi := bounds[len(bounds)-2], bounds[len(bounds)-1]
			nb = append(nb, lo)
			copy(dst[lo:hi], src[lo:hi])
		}
		nb = append(nb, n)
		mg.Wait()
		bounds = nb
		src, dst = dst, src
	}
	return src
}

// selfJoinRho sets every rho[i] to point i's exact local density: its
// strict d_cut count, itself included, from the tree's symmetric
// self-join (kdtree.Tree.SelfCounts), plus jitter(i). It returns the
// counts. Ex-DPC, Approx-DPC and FastDPeak all take their densities from
// it, so theirs are equal bit for bit by construction (Theorem 4).
func selfJoinRho(tree *kdtree.Tree, dcut float64, rho []float64, workers int) []int32 {
	counts := tree.SelfCounts(dcut, workers)
	for i, c := range counts {
		rho[i] = float64(c) + jitter(i)
	}
	return counts
}

// densityRank returns densityOrder(rho, workers) and its inverse: rank[i]
// is point i's position in the order.
func densityRank(rho []float64, workers int) (order, rank []int32) {
	order = densityOrder(rho, workers)
	rank = make([]int32, len(rho))
	for r, i := range order {
		rank[i] = int32(r)
	}
	return order, rank
}

// mergeRuns merges two sorted runs into dst (len(dst) == len(a)+len(b)).
func mergeRuns(dst, a, b []int32, less func(x, y int32) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	copy(dst[k:], a[i:])
	copy(dst[k+len(a)-i:], b[j:])
}

// scanDelta computes exact dependent points the straightforward way
// (§2.2 step 3): sort by descending density, then for the point of rank r
// scan the r points of higher density for the nearest one. Shared by Scan,
// R-tree+Scan, and CFSFDP-A (the paper swaps CFSFDP-A's own quadratic
// dependent-distance step for this one). Parallelized per point with
// dynamic scheduling; cost grows with rank, which static partitioning
// would balance poorly.
//
// The rows are first copied into density order, so the candidates of
// rank r are rows [0, r) of the copy, scanned in blocks of runBlock
// through the run kernel. A block's limit is the best at its start;
// that is exact, because an abandoned sum exceeds it and the best only
// shrinks.
func scanDelta(ds *geom.Dataset, rho []float64, workers int) (delta []float64, dep []int32) {
	n, d := ds.N, ds.Dim
	delta = make([]float64, n)
	dep = make([]int32, n)
	order := densityOrder(rho, workers)
	coords := make([]float64, n*d)
	for k, j := range order {
		row := coords[k*d : (k+1)*d]
		copy(row, ds.AtBuf(int(j), row))
	}
	sorted := geom.NewDataset(coords, d)
	peak := order[0]
	delta[peak] = math.Inf(1)
	dep[peak] = NoDependent
	partition.DynamicWorkers(n-1, workers, 8, func() func(int) {
		out := make([]float64, runBlock)
		return func(k int) {
			r := k + 1 // rank in the density order
			q := sorted.At(r)
			bestSq := math.Inf(1)
			best := NoDependent
			for lo := 0; lo < r; lo += runBlock {
				hi := min(lo+runBlock, r)
				geom.SqDistToRun(sorted, q, int32(lo), int32(hi), bestSq, out)
				for t, s := range out[:hi-lo] {
					if s < bestSq {
						bestSq, best = s, order[lo+t]
					}
				}
			}
			i := order[r]
			delta[i] = math.Sqrt(bestSq)
			dep[i] = best
		}
	})
	return delta, dep
}

// nearestDenser returns the nearest of cands denser than point i and its
// squared distance, or (best, bestSq) when none is strictly closer: a
// scan's running answer passes through, and on a tie the earlier
// candidate stays.
func nearestDenser(ds *geom.Dataset, rho []float64, i int32, cands []int32, best int32, bestSq float64) (int32, float64) {
	for _, j := range cands {
		if rho[j] > rho[i] {
			if v := geom.SqDistIdx(ds, i, j); v < bestSq {
				best, bestSq = j, v
			}
		}
	}
	return best, bestSq
}

// WalkDependents sets delta[i] and dep[i], for every point i in pts, to
// i's dependent point: its nearest point of lower density rank. rank[i]
// is i's position in densityOrder (S-Approx-DPC's variant is below), and
// tree must hold every point of the dataset. Each point is one independent rank-pruned walk
// (kdtree.NNLowerKey), so the pass is dynamically scheduled over workers
// with no ordering between points. The answer is scanDelta's, bit for
// bit: the same distance kernel, and on equal squared distance the lower
// rank wins. The density peak (rank 0) gets NoDependent and +Inf.
//
// Every exact dependent-point path runs it: Ex-DPC over every point, the
// density index over the local maxima its stored neighbor lists cannot
// answer, and Approx-DPC and FastDPeak over the points their O(1) rules
// leave open. S-Approx-DPC ranks only its picked points and gives every
// other point math.MaxInt32, which no walk ever returns.
func WalkDependents(tree *kdtree.Tree, rank, pts []int32, delta []float64, dep []int32, workers int) {
	sub := tree.SubtreeMin(rank)
	partition.DynamicWorkers(len(pts), workers, 4, func() func(int) {
		buf := make([]float64, tree.Dim())
		return func(k int) {
			i := pts[k]
			j, sq := tree.NNLowerKey(i, rank, sub, buf)
			delta[i] = math.Sqrt(sq)
			dep[i] = j
		}
	})
}

// DecisionPoint is one (rho, delta) pair of the decision graph (Figure 1).
type DecisionPoint struct {
	ID    int32
	Rho   float64
	Delta float64
}

// DecisionGraph returns the decision-graph points sorted by descending
// delta (infinite deltas first), the form users inspect to pick RhoMin and
// DeltaMin.
func DecisionGraph(res *Result) []DecisionPoint {
	out := make([]DecisionPoint, len(res.Rho))
	for i := range out {
		out[i] = DecisionPoint{ID: int32(i), Rho: res.Rho[i], Delta: res.Delta[i]}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Delta > out[b].Delta })
	return out
}

// SuggestDeltaMin proposes a delta_min that separates the k points of
// largest dependent distance (the presumed centers) from the rest, by
// taking the midpoint of the largest-relative gap boundary. Points below
// rhoMin are ignored, mirroring how an analyst reads the decision graph.
// It returns (suggestion, ok); ok is false when fewer than k+1 eligible
// points exist.
func SuggestDeltaMin(res *Result, k int, rhoMin float64) (float64, bool) {
	var deltas []float64
	for i := range res.Delta {
		if res.Rho[i] >= rhoMin {
			deltas = append(deltas, res.Delta[i])
		}
	}
	if len(deltas) <= k || k < 1 {
		return 0, false
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(deltas)))
	hi, lo := deltas[k-1], deltas[k]
	if math.IsInf(hi, 1) {
		// All top-k are infinite; any finite threshold above lo works.
		return lo * 2, true
	}
	return (hi + lo) / 2, true
}
