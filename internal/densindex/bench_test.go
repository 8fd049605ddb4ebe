package densindex

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
)

// The density-index benchmarks share one setting: the 20,000-point
// PAMAP2 stand-in, the service's ceiling (1.5 x d_cut) and every CPU.
const benchN = 20000

// BenchmarkBuild builds the density index of the 20,000-point PAMAP2
// stand-in, its whole-dataset kd-tree included.
func BenchmarkBuild(b *testing.B) {
	d := data.PAMAP2Like(benchN, 1)
	workers := runtime.NumCPU()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(d.Points, d.DCut*1.5, workers, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCut re-cuts that index at the stand-in's own d_cut and
// thresholds: density, dependents, centers and labels.
func BenchmarkCut(b *testing.B) {
	d := data.PAMAP2Like(benchN, 1)
	workers := runtime.NumCPU()
	idx, err := Build(d.Points, d.DCut*1.5, workers, 0)
	if err != nil {
		b.Fatal(err)
	}
	p := core.Params{DCut: d.DCut, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin, Workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Cut(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdate slides the density index of the 20,000-point PAMAP2
// stand-in window by 1,000 expired and 1,000 appended points. The tree
// Update builds for the new version is part of the cost.
func BenchmarkUpdate(b *testing.B) {
	const slide = 1000
	d := data.PAMAP2Like(benchN+slide, 1)
	dcMax := d.DCut * 1.5
	workers := runtime.NumCPU()
	idx, err := Build(window(d.Points, 0, benchN), dcMax, workers, 0)
	if err != nil {
		b.Fatal(err)
	}
	slid := window(d.Points, slide, benchN+slide)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Update(idx, slid, slide, slide, workers, 0); err != nil {
			b.Fatal(err)
		}
	}
}
