package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/partition"
)

// ComputeHalo flags the cluster halo of the original DPC paper (Rodriguez
// & Laio 2014): for each cluster, the border density rho_b is the highest
// density among its points that lie within d_cut of a point from another
// cluster; members with rho < rho_b form the halo — the low-confidence
// fringe where clusters touch. Amagata & Hara's §6 discusses exactly these
// border points as the residual error source of the approximations.
//
// The returned slice marks halo membership per point (noise points are
// never halo; they are already excluded). The computation is one range
// search per point, parallelized like a density phase.
func ComputeHalo(pts [][]float64, res *Result, dcut float64, workers int) ([]bool, error) {
	ds, err := geom.FromRows(pts)
	if err != nil {
		return nil, err
	}
	return ComputeHaloDataset(ds, res, dcut, workers)
}

// ComputeHaloDataset is ComputeHalo over a flat dataset (no copy).
func ComputeHaloDataset(ds *geom.Dataset, res *Result, dcut float64, workers int) ([]bool, error) {
	n := ds.N
	if len(res.Labels) != n || len(res.Rho) != n {
		return nil, fmt.Errorf("core: result does not match dataset (%d labels for %d points)", len(res.Labels), n)
	}
	if dcut <= 0 {
		return nil, fmt.Errorf("core: non-positive dcut")
	}
	if workers <= 0 {
		workers = 1
	}
	tree := kdtree.BuildAllWorkers(ds, workers)
	k := res.NumClusters()
	// Per-cluster border density, accumulated with per-worker maxima to
	// stay lock-free.
	borderRho := make([]float64, k)
	type workerMax struct {
		v []float64
		_ [64]byte // avoid false sharing between worker slots
	}
	locals := make([]workerMax, workers)
	for w := range locals {
		locals[w].v = make([]float64, k)
	}
	// Partition points across workers deterministically.
	partition.DynamicChunked(workers, workers, 1, func(w int) {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		mine := locals[w].v
		for i := lo; i < hi; i++ {
			li := res.Labels[i]
			if li == NoCluster {
				continue
			}
			touchesOther := false
			tree.RangeSearch(ds.At(i), dcut, func(j int32, _ float64) {
				if touchesOther {
					return
				}
				lj := res.Labels[j]
				if lj != li && lj != NoCluster {
					touchesOther = true
				}
			})
			if touchesOther && res.Rho[i] > mine[li] {
				mine[li] = res.Rho[i]
			}
		}
	})
	for w := range locals {
		for c := 0; c < k; c++ {
			if locals[w].v[c] > borderRho[c] {
				borderRho[c] = locals[w].v[c]
			}
		}
	}
	halo := make([]bool, n)
	for i := 0; i < n; i++ {
		li := res.Labels[i]
		if li == NoCluster {
			continue
		}
		if res.Rho[i] < borderRho[li] {
			halo[i] = true
		}
	}
	return halo, nil
}
