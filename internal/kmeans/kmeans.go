// Package kmeans implements Lloyd's algorithm with k-means++ seeding
// (Arthur & Vassilvitskii, SODA 2007). The CFSFDP-A baseline (Bai et al.,
// Pattern Recognition 2017) uses k-means centroids as pivot points for its
// triangle-inequality filter; this package provides that preprocessing.
package kmeans

import (
	"math"
	"math/rand"

	"repro/internal/geom"
)

// Result holds a k-means clustering.
type Result struct {
	// Centroids are the k cluster centers (some may be unused when k > n).
	Centroids [][]float64
	// Assign maps every point to its centroid index.
	Assign []int
	// Iters is the number of Lloyd iterations performed.
	Iters int
}

// Run clusters the flat dataset into k groups, iterating at most maxIter
// times or until assignments stop changing. The seed drives k-means++
// initialization. k is clamped to [1, ds.N].
func Run(ds *geom.Dataset, k, maxIter int, seed int64) *Result {
	n := ds.N
	if n == 0 {
		return &Result{}
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	if maxIter < 1 {
		maxIter = 1
	}
	d := ds.Dim
	rng := rand.New(rand.NewSource(seed))
	centroids := seedPlusPlus(ds, k, rng)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	counts := make([]int, k)
	sums := make([][]float64, k)
	for c := range sums {
		sums[c] = make([]float64, d)
	}

	iters := 0
	for ; iters < maxIter; iters++ {
		changed := false
		for c := 0; c < k; c++ {
			counts[c] = 0
			for j := 0; j < d; j++ {
				sums[c][j] = 0
			}
		}
		for i := 0; i < n; i++ {
			p := ds.At(i)
			best, bestSq := 0, math.Inf(1)
			for c, ct := range centroids {
				if sq := geom.SqDist(p, ct); sq < bestSq {
					best, bestSq = c, sq
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
			counts[best]++
			for j := 0; j < d; j++ {
				sums[best][j] += p[j]
			}
		}
		if !changed {
			break
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point; keeps all k
				// pivots useful for the triangle-inequality filter.
				copy(centroids[c], ds.At(rng.Intn(n)))
				continue
			}
			for j := 0; j < d; j++ {
				centroids[c][j] = sums[c][j] / float64(counts[c])
			}
		}
	}
	return &Result{Centroids: centroids, Assign: assign, Iters: iters}
}

// seedPlusPlus picks k initial centroids with D^2 weighting.
func seedPlusPlus(ds *geom.Dataset, k int, rng *rand.Rand) [][]float64 {
	n := ds.N
	centroids := make([][]float64, 0, k)
	first := geom.Clone(ds.At(rng.Intn(n)))
	centroids = append(centroids, first)
	sqd := make([]float64, n)
	for i := 0; i < n; i++ {
		sqd[i] = geom.SqDist(ds.At(i), first)
	}
	for len(centroids) < k {
		var total float64
		for _, v := range sqd {
			total += v
		}
		var next []float64
		if total == 0 {
			// All remaining points coincide with a centroid; any choice works.
			next = geom.Clone(ds.At(rng.Intn(n)))
		} else {
			target := rng.Float64() * total
			idx := n - 1
			var acc float64
			for i, v := range sqd {
				acc += v
				if acc >= target {
					idx = i
					break
				}
			}
			next = geom.Clone(ds.At(idx))
		}
		centroids = append(centroids, next)
		for i := 0; i < n; i++ {
			if sq := geom.SqDist(ds.At(i), next); sq < sqd[i] {
				sqd[i] = sq
			}
		}
	}
	return centroids
}
