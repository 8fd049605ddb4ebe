package core

import (
	"math"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/kmeans"
	"repro/internal/partition"
)

// CFSFDPA is the CFSFDP-A baseline (Bai et al., Pattern Recognition 2017),
// the prior state-of-the-art exact algorithm. It selects k pivot points
// with k-means, keeps each point's distance to every pivot, and prunes
// density candidates with the triangle inequality: q can be within d_cut
// of p only if |dist(p,v) - dist(q,v)| < d_cut for every pivot v. Points
// are grouped per assigned pivot and sorted by pivot distance, so the
// primary filter is a binary-searched window per group.
//
// As in the paper's experiments, dependent distances use Scan's method
// (Table 1 shows CFSFDP-A's own dependent-point step is slower than
// Scan's, so the paper substitutes it).
type CFSFDPA struct {
	// Pivots is k; 0 means round(sqrt(n)) clamped to [4, 256].
	Pivots int
}

// Name implements Algorithm.
func (CFSFDPA) Name() string { return "CFSFDP-A" }

// Cluster implements Algorithm.
func (a CFSFDPA) Cluster(pts [][]float64, p Params) (*Result, error) {
	return clusterRows(a, pts, p)
}

// ClusterDataset implements Algorithm.
func (a CFSFDPA) ClusterDataset(ds *geom.Dataset, p Params) (*Result, error) {
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
	km := kmeans.Run(ds, k, 20, p.Seed+2)
	k = len(km.Centroids)
	// Per-point distance to every pivot: the filter's precomputed table.
	pivDist := make([][]float64, n)
	partition.DynamicChunked(n, workers, 64, func(i int) {
		row := make([]float64, k)
		for c := 0; c < k; c++ {
			row[c] = geom.Dist(ds.At(i), km.Centroids[c])
		}
		pivDist[i] = row
	})
	// Group members per assigned pivot, sorted by distance to that pivot.
	groups := make([][]int32, k)
	for i := 0; i < n; i++ {
		c := km.Assign[i]
		groups[c] = append(groups[c], int32(i))
	}
	partition.Dynamic(k, workers, func(c int) {
		g := groups[c]
		sort.Slice(g, func(a, b int) bool { return pivDist[g[a]][c] < pivDist[g[b]][c] })
	})
	res.Timing.Build = time.Since(start)

	sq := p.DCut * p.DCut
	start = time.Now()
	partition.DynamicChunked(n, workers, 4, func(i int) {
		count := 0
		for c := 0; c < k; c++ {
			g := groups[c]
			center := pivDist[i][c]
			lo := sort.Search(len(g), func(t int) bool { return pivDist[g[t]][c] > center-p.DCut })
			for t := lo; t < len(g); t++ {
				j := g[t]
				dj := pivDist[j][c]
				if dj >= center+p.DCut {
					break // window end: |d_i - d_j| >= d_cut ⇒ dist >= d_cut
				}
				if geom.SqDistIdx(ds, int32(i), j) < sq {
					count++
				}
			}
		}
		res.Rho[i] = float64(count) + jitter(i)
	})
	res.Timing.Rho = time.Since(start)

	start = time.Now()
	res.Delta, res.Dep = scanDelta(ds, res.Rho, workers)
	res.Timing.Delta = time.Since(start)

	start = time.Now()
	finalize(res, p)
	res.Timing.Label = time.Since(start)
	return res, nil
}
