package core

import (
	"time"

	"repro/internal/geom"
	"repro/internal/partition"
	"repro/internal/rtree"
)

// RtreeScan is the "R-tree + Scan" baseline of §6: local densities come
// from circular range counts on an STR-packed R-tree, dependent points
// from the same quadratic prefix scan as Scan. The paper uses it to show
// that indexing alone fixes only the rho phase.
type RtreeScan struct {
	// Fanout overrides the R-tree branching factor; 0 means the default.
	Fanout int
}

// Name implements Algorithm.
func (RtreeScan) Name() string { return "R-tree + Scan" }

// Cluster implements Algorithm.
func (a RtreeScan) Cluster(pts [][]float64, p Params) (*Result, error) {
	return clusterRows(a, pts, p)
}

// ClusterDataset implements Algorithm.
func (a RtreeScan) ClusterDataset(ds *geom.Dataset, p Params) (*Result, error) {
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

	start := time.Now()
	tree := rtree.Build(ds, a.Fanout)
	res.Timing.Build = time.Since(start)

	start = time.Now()
	partition.DynamicWorkers(n, workers, 4, func() func(int) {
		buf := make([]float64, ds.Dim)
		return func(i int) {
			res.Rho[i] = float64(tree.RangeCount(ds.AtBuf(i, buf), p.DCut)) + jitter(i)
		}
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
