package core

// This file implements the three further competitors the paper's §6
// mentions testing and then omits from the main charts: FastDPeak (slow),
// DPCG (slow), and CFSFDP-DE (inaccurate). They are reproduced here so
// the harness can regenerate that paragraph's observations; they are not
// part of the paper's main comparison set.

import (
	"math"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/kdtree"
	"repro/internal/kmeans"
	"repro/internal/partition"
)

// FastDPeak is a kNN-based DPC in the manner of Chen et al.
// (Knowledge-Based Systems 2020): local density still follows
// Definition 1, but every point additionally materializes its k nearest
// neighbors; the dependent point is taken from the kNN list when a denser
// neighbor appears there and falls back to an exact search otherwise. The
// per-point kNN searches dominate and make it slower than Ex-DPC — the
// behaviour the paper reports ("FastDPeak ... took 8114 seconds").
type FastDPeak struct {
	// K is the neighbor-list size; 0 means 32.
	K int
}

// Name implements Algorithm.
func (FastDPeak) Name() string { return "FastDPeak" }

// Cluster implements Algorithm.
func (a FastDPeak) Cluster(pts [][]float64, p Params) (*Result, error) {
	return clusterRows(a, pts, p)
}

// ClusterDataset implements Algorithm.
func (a FastDPeak) ClusterDataset(ds *geom.Dataset, p Params) (*Result, error) {
	if err := validateInput(ds, p); err != nil {
		return nil, err
	}
	n := ds.N
	k := a.K
	if k <= 0 {
		k = 32
	}
	if k > n {
		k = n
	}
	res := &Result{
		Rho:   make([]float64, n),
		Delta: make([]float64, n),
		Dep:   make([]int32, n),
	}
	workers := p.workers()

	start := time.Now()
	tree := kdtree.BuildAllWorkers(ds, workers)
	res.Timing.Build = time.Since(start)

	// Density phase: the range counts of Definition 1 from the tree's
	// self-join (Ex-DPC's density pass), plus the kNN list that the
	// dependent phase consumes.
	start = time.Now()
	selfJoinRho(tree, p.DCut, res.Rho, workers)
	knnIDs := make([][]int32, n)
	partition.DynamicWorkers(n, workers, 4, func() func(int) {
		buf := make([]float64, ds.Dim)
		return func(i int) {
			ids, _ := tree.KNN(ds.AtBuf(i, buf), k+1) // +1: the query point itself
			// Drop the self match (distance zero, same index).
			out := make([]int32, 0, k)
			for _, id := range ids {
				if id != int32(i) {
					out = append(out, id)
				}
			}
			knnIDs[i] = out
		}
	})
	res.Timing.Rho = time.Since(start)

	// Dependent phase: kNN shortcut, exact fallback.
	start = time.Now()
	const unresolvedMark = int32(-2)
	partition.DynamicChunked(n, workers, 16, func(i int) {
		for _, j := range knnIDs[i] { // ascending distance order
			if res.Rho[j] > res.Rho[i] {
				res.Dep[i] = j
				res.Delta[i] = geom.DistIdx(ds, int32(i), j)
				return
			}
		}
		res.Dep[i] = unresolvedMark
	})
	var unresolved []int32
	for i := int32(0); i < int32(n); i++ {
		if res.Dep[i] == unresolvedMark {
			unresolved = append(unresolved, i)
		}
	}
	_, rank := densityRank(res.Rho, workers)
	WalkDependents(tree, rank, unresolved, res.Delta, res.Dep, workers)
	res.Timing.Delta = time.Since(start)

	start = time.Now()
	finalize(res, p)
	res.Timing.Label = time.Since(start)
	return res, nil
}

// DPCG is a grid-based DPC in the manner of Xu et al. (IJMLC 2018):
// densities come from scanning the 3^d neighborhood of each point's grid
// cell, and dependent points from expanding cell rings around each point.
// The ring expansion has no index support, which is why it degrades on
// large or high-dimensional data (the paper: "DPCG ... took 14390
// seconds").
type DPCG struct{}

// Name implements Algorithm.
func (DPCG) Name() string { return "DPCG" }

// Cluster implements Algorithm.
func (a DPCG) Cluster(pts [][]float64, p Params) (*Result, error) {
	return clusterRows(a, pts, p)
}

// ClusterDataset implements Algorithm.
func (DPCG) ClusterDataset(ds *geom.Dataset, p Params) (*Result, error) {
	if err := validateInput(ds, p); err != nil {
		return nil, err
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
	side := grid.SideForDCut(p.DCut, d)
	g := grid.Build(ds, side)
	res.Timing.Build = time.Since(start)

	// A d_cut ball around a point reaches at most ceil(d_cut/side) cells
	// in each axis direction.
	reach := int64(math.Ceil(p.DCut / side))
	sq := p.DCut * p.DCut

	start = time.Now()
	partition.DynamicChunked(n, workers, 4, func(i int) {
		count := 0
		scan := func(c int32) {
			for _, j := range g.Cells[c].Points {
				if geom.SqDistIdx(ds, int32(i), j) < sq {
					count++
				}
			}
		}
		own := g.PointCell[i]
		scan(own)
		g.ForEachNeighborCell(own, reach, scan)
		res.Rho[i] = float64(count) + jitter(i)
	})
	res.Timing.Rho = time.Since(start)

	start = time.Now()
	partition.DynamicChunked(n, workers, 8, func(i int) {
		bestSq := math.Inf(1)
		best := NoDependent
		tryCell := func(c int32) {
			best, bestSq = nearestDenser(ds, res.Rho, int32(i), g.Cells[c].Points, best, bestSq)
		}
		own := g.PointCell[i]
		tryCell(own)
		// Expand rings until a hit is safe: every cell at Chebyshev ring r
		// is at least (r-1)*side away, so once (ring-1)*side exceeds the
		// best distance no further ring can improve it.
		for ring := int64(1); ; ring++ {
			if best != NoDependent {
				minPossible := float64(ring-1) * side
				if minPossible*minPossible > bestSq {
					break
				}
			}
			found := false
			g.ForEachNeighborRing(own, ring, func(c int32) {
				found = true
				tryCell(c)
			})
			maxRing := g.MaxRing(own)
			if ring >= maxRing && !found {
				break // scanned the whole occupied grid
			}
		}
		res.Dep[i] = best
		res.Delta[i] = math.Sqrt(bestSq) // +Inf for the global density peak
	})
	res.Timing.Delta = time.Since(start)

	start = time.Now()
	finalize(res, p)
	res.Timing.Label = time.Since(start)
	return res, nil
}

// CFSFDPDE is the approximate variant of Bai et al. 2017 ("CFSFDP-DE"),
// which estimates densities from the k-means partition instead of exact
// range counts: a point's density estimate is the number of co-cluster
// points inside its pivot-distance window, and dependent points are only
// searched among the same k-means cluster (with a centroid-level hop when
// that fails). It trades accuracy for speed so aggressively that the
// paper measured a Rand index of 0.18 on PAMAP2 and dropped it.
type CFSFDPDE struct {
	// Pivots is k for the k-means partition; 0 means round(sqrt(n))
	// clamped to [4, 256].
	Pivots int
}

// Name implements Algorithm.
func (CFSFDPDE) Name() string { return "CFSFDP-DE" }

// Cluster implements Algorithm.
func (a CFSFDPDE) Cluster(pts [][]float64, p Params) (*Result, error) {
	return clusterRows(a, pts, p)
}

// ClusterDataset implements Algorithm.
func (a CFSFDPDE) ClusterDataset(ds *geom.Dataset, p Params) (*Result, error) {
	if err := validateInput(ds, p); err != nil {
		return nil, err
	}
	n := ds.N
	res := &Result{
		Rho:   make([]float64, n),
		Delta: make([]float64, n),
		Dep:   make([]int32, n),
	}
	workers := p.workers()

	k := a.Pivots
	if k <= 0 {
		k = int(math.Round(math.Sqrt(float64(n))))
		if k < 4 {
			k = 4
		}
		if k > 256 {
			k = 256
		}
	}

	start := time.Now()
	km := kmeans.Run(ds, k, 20, p.Seed+3)
	k = len(km.Centroids)
	pivotDist := make([]float64, n)
	groups := make([][]int32, k)
	for i := 0; i < n; i++ {
		c := km.Assign[i]
		pivotDist[i] = geom.Dist(ds.At(i), km.Centroids[c])
		groups[c] = append(groups[c], int32(i))
	}
	partition.Dynamic(k, workers, func(c int) {
		g := groups[c]
		sort.Slice(g, func(a, b int) bool { return pivotDist[g[a]] < pivotDist[g[b]] })
	})
	res.Timing.Build = time.Since(start)

	// Density estimate: co-cluster points whose pivot distance lies within
	// +- d_cut of the point's own — the window *size*, no exact distances.
	start = time.Now()
	partition.DynamicChunked(n, workers, 16, func(i int) {
		c := km.Assign[i]
		g := groups[c]
		center := pivotDist[i]
		lo := sort.Search(len(g), func(t int) bool { return pivotDist[g[t]] > center-p.DCut })
		hi := sort.Search(len(g), func(t int) bool { return pivotDist[g[t]] >= center+p.DCut })
		res.Rho[i] = float64(hi-lo) + jitter(i)
	})
	res.Timing.Rho = time.Since(start)

	// Dependent point: nearest denser point within the same k-means
	// cluster; if the point is its cluster's density peak, hop to the
	// nearest denser cluster peak.
	start = time.Now()
	var peaks []int32 // of the non-empty clusters, in cluster order
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		best := g[0]
		for _, j := range g[1:] {
			if res.Rho[j] > res.Rho[best] {
				best = j
			}
		}
		peaks = append(peaks, best)
	}
	partition.DynamicChunked(n, workers, 16, func(i int) {
		best, bestSq := nearestDenser(ds, res.Rho, int32(i), groups[km.Assign[i]], NoDependent, math.Inf(1))
		if best == NoDependent {
			best, bestSq = nearestDenser(ds, res.Rho, int32(i), peaks, best, bestSq)
		}
		res.Dep[i] = best
		res.Delta[i] = math.Sqrt(bestSq) // +Inf for the global density peak
	})
	res.Timing.Delta = time.Since(start)

	start = time.Now()
	finalize(res, p)
	res.Timing.Label = time.Since(start)
	return res, nil
}
