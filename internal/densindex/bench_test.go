package densindex

import (
	"runtime"
	"testing"

	"repro/internal/data"
)

// BenchmarkUpdate slides the density index of a 20,000-point PAMAP2
// stand-in window by 1,000 expired and 1,000 appended points, at the
// service's ceiling (1.5 x d_cut) and every CPU. The tree Update builds
// for the new version is part of the cost.
func BenchmarkUpdate(b *testing.B) {
	const n, slide = 20000, 1000
	d := data.PAMAP2Like(n+slide, 1)
	dcMax := d.DCut * 1.5
	workers := runtime.NumCPU()
	idx, err := Build(window(d.Points, 0, n), dcMax, workers, 0)
	if err != nil {
		b.Fatal(err)
	}
	slid := window(d.Points, slide, n+slide)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Update(idx, slid, slide, slide, workers, 0); err != nil {
			b.Fatal(err)
		}
	}
}
