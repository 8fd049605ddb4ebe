package core

import (
	"time"

	"repro/internal/geom"
	"repro/internal/partition"
)

// Scan is the straightforward O(n^2) algorithm of §2.1: a linear scan per
// point for local density and the sorted prefix scan for dependent points.
// Both phases are embarrassingly parallel over points and use dynamic
// scheduling. Each linear scan runs over the dataset's rows in blocks of
// runBlock, one run-kernel call per block.
type Scan struct{}

// runBlock is the number of consecutive rows a linear scan hands the
// run kernel (geom.SqDistToRun) per call.
const runBlock = 256

// Name implements Algorithm.
func (Scan) Name() string { return "Scan" }

// Cluster implements Algorithm.
func (a Scan) Cluster(pts [][]float64, p Params) (*Result, error) {
	return clusterRows(a, pts, p)
}

// ClusterDataset implements Algorithm.
func (Scan) ClusterDataset(ds *geom.Dataset, p Params) (*Result, error) {
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
	sq := p.DCut * p.DCut

	start := time.Now()
	partition.DynamicWorkers(n, workers, 4, func() func(int) {
		buf := make([]float64, ds.Dim)
		out := make([]float64, runBlock)
		return func(i int) {
			q := ds.AtBuf(i, buf)
			count := 0
			for lo := 0; lo < n; lo += runBlock {
				hi := min(lo+runBlock, n)
				geom.SqDistToRun(ds, q, int32(lo), int32(hi), sq, out)
				for _, s := range out[:hi-lo] {
					if s < sq {
						count++
					}
				}
			}
			res.Rho[i] = float64(count) + jitter(i)
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
