package core

import (
	"math"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/lsh"
)

// LSHDDP is the LSH-DDP baseline (Zhang, Chen & Yu, TKDE 2016), the prior
// state-of-the-art approximate DPC, here in its multicore form. Points are
// bucketed by M compound p-stable LSH tables; each point's local density
// and dependent point are estimated from its bucket-mates, with a full
// scan fallback for points whose bucket holds no denser candidate (the
// paper's accuracy refinement).
//
// Parallelization is a static equal-count partition of the points —
// deliberately without load balancing, because LSH bucket sizes vary wildly
// and the paper's Figure 9 attributes LSH-DDP's poor thread scaling to
// exactly this.
type LSHDDP struct {
	// Params overrides the LSH configuration; zero value means
	// lsh.DefaultParams(DCut) seeded from Params.Seed.
	Params lsh.Params
}

// Name implements Algorithm.
func (LSHDDP) Name() string { return "LSH-DDP" }

// Cluster implements Algorithm.
func (a LSHDDP) Cluster(pts [][]float64, p Params) (*Result, error) {
	return clusterRows(a, pts, p)
}

// ClusterDataset implements Algorithm.
func (a LSHDDP) ClusterDataset(ds *geom.Dataset, p Params) (*Result, error) {
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

	lp := a.Params
	if lp.Tables == 0 && lp.Hashes == 0 && lp.Width == 0 {
		lp = lsh.DefaultParams(p.DCut)
		lp.Seed = p.Seed + 1
	}

	start := time.Now()
	forest := lsh.Build(ds, lp)
	res.Timing.Build = time.Since(start)

	sq := p.DCut * p.DCut

	// Approximate local densities: bucket-mates within d_cut, plus self.
	start = time.Now()
	staticPartition(n, workers, func(lo, hi int) {
		stamp := make([]int32, n)
		for i := lo; i < hi; i++ {
			count := 1 // self
			forest.Candidates(int32(i), stamp, int32(i)+1, func(j int32) {
				if geom.SqDistIdx(ds, int32(i), j) < sq {
					count++
				}
			})
			res.Rho[i] = float64(count) + jitter(i)
		}
	})
	res.Timing.Rho = time.Since(start)

	// Approximate dependent points: nearest denser bucket-mate; full scan
	// fallback when no bucket-mate is denser.
	start = time.Now()
	staticPartition(n, workers, func(lo, hi int) {
		stamp := make([]int32, n)
		for i := lo; i < hi; i++ {
			pi := ds.At(i)
			bestSq := math.Inf(1)
			best := NoDependent
			forest.Candidates(int32(i), stamp, int32(i)+1, func(j int32) {
				if res.Rho[j] <= res.Rho[i] {
					return
				}
				if v := geom.SqDistToIdx(ds, pi, j); v < bestSq {
					bestSq, best = v, j
				}
			})
			if best == NoDependent {
				// "If the distance between p and its approximate dependent
				// point does not seem accurate, LSH-DDP computes its
				// dependent point by scanning P."
				// The density test comes before any distance: few rows
				// are denser than a point with no denser bucket-mate, so
				// a run over every row computes distances this skips.
				for j := int32(0); j < int32(n); j++ {
					if res.Rho[j] > res.Rho[i] {
						if v := geom.SqDistToIdx(ds, pi, j); v < bestSq {
							bestSq, best = v, j
						}
					}
				}
			}
			res.Dep[i] = best
			res.Delta[i] = math.Sqrt(bestSq) // +Inf for the global density peak
		}
	})
	res.Timing.Delta = time.Since(start)

	start = time.Now()
	finalize(res, p)
	res.Timing.Label = time.Since(start)
	return res, nil
}

// staticPartition splits [0, n) into `workers` equal contiguous blocks and
// runs fn(lo, hi) for each on its own goroutine — static scheduling with
// no load balancing, as LSH-DDP's original MapReduce formulation implies.
func staticPartition(n, workers int, fn func(lo, hi int)) {
	if workers <= 1 || n <= 1 {
		fn(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	block := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
