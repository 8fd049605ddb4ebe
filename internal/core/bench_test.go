package core

import (
	"math/rand"
	"testing"

	"repro/internal/data"
)

// benchDataset is a 3-d hub mixture of 20k points, shared across the
// per-phase micro-benchmarks (Table 6's decomposition at package level).
func benchDataset(b *testing.B) ([][]float64, Params) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	n := 20000
	pts := make([][]float64, 0, n)
	for len(pts) < n {
		cx := float64(rng.Intn(10)) * 10000
		cy := float64(rng.Intn(10)) * 10000
		cz := float64(rng.Intn(10)) * 10000
		pts = append(pts, []float64{
			cx + rng.NormFloat64()*800,
			cy + rng.NormFloat64()*800,
			cz + rng.NormFloat64()*800,
		})
	}
	return pts, Params{DCut: 500, RhoMin: 5, DeltaMin: 2000, Workers: 0, Epsilon: 0.8, Seed: 1}
}

func benchRun(b *testing.B, alg Algorithm) {
	pts, p := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Cluster(pts, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreScan(b *testing.B)       { benchRun(b, Scan{}) }
func BenchmarkCoreRtreeScan(b *testing.B)  { benchRun(b, RtreeScan{}) }
func BenchmarkCoreLSHDDP(b *testing.B)     { benchRun(b, LSHDDP{}) }
func BenchmarkCoreCFSFDPA(b *testing.B)    { benchRun(b, CFSFDPA{}) }
func BenchmarkCoreExDPC(b *testing.B)      { benchRun(b, ExDPC{}) }
func BenchmarkCoreApproxDPC(b *testing.B)  { benchRun(b, ApproxDPC{}) }
func BenchmarkCoreSApproxDPC(b *testing.B) { benchRun(b, SApproxDPC{}) }
func BenchmarkCoreFastDPeak(b *testing.B)  { benchRun(b, FastDPeak{}) }
func BenchmarkCoreDPCG(b *testing.B)       { benchRun(b, DPCG{}) }
func BenchmarkCoreCFSFDPDE(b *testing.B)   { benchRun(b, CFSFDPDE{}) }

// BenchmarkCoreApproxDPCS2 fits Approx-DPC on the 20k S2 stand-in at
// its own parameters. S2 holds about 9.8 points per grid cell, so the
// in-cell rule resolves most points and one neighbor-cell rule search
// serves a whole cell.
func BenchmarkCoreApproxDPCS2(b *testing.B) { benchS2(b, ApproxDPC{}) }

// BenchmarkCoreSApproxDPCS2 fits S-Approx-DPC on the 20k S2 stand-in at
// its own parameters. On benchDataset |P'_pick|² exceeds 4n and every
// fit resolves P'_pick with the walk fallback; on S2 40 of the 2,033
// picked points stay unresolved, so every fit runs the temporary-cluster
// phase (sApproxTemporaryClusters) instead.
func BenchmarkCoreSApproxDPCS2(b *testing.B) { benchS2(b, SApproxDPC{}) }

func benchS2(b *testing.B, alg Algorithm) {
	d := data.SSet(2, 20000, 1)
	p := Params{DCut: d.DCut, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.ClusterDataset(d.Points, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSApproxEpsilon shows the Table 5 time side of the eps trade.
func BenchmarkSApproxEpsilon(b *testing.B) {
	for _, eps := range []float64{0.2, 0.5, 1.0} {
		b.Run(formatEps(eps), func(b *testing.B) {
			pts, p := benchDataset(b)
			p.Epsilon = eps
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (SApproxDPC{}).Cluster(pts, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func formatEps(e float64) string {
	switch e {
	case 0.2:
		return "eps0.2"
	case 0.5:
		return "eps0.5"
	default:
		return "eps1.0"
	}
}

// BenchmarkLabelPropagation isolates the shared finalize step.
func BenchmarkLabelPropagation(b *testing.B) {
	pts, p := benchDataset(b)
	res, err := ExDPC{}.Cluster(pts, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		finalize(res, p)
	}
}
