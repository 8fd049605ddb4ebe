package core

import (
	"testing"

	"repro/internal/data"
)

// TestExDPCFloat32Allocs requires an Ex-DPC fit of an f32 dataset to
// allocate about as often as the same fit at f64: every whole-dataset
// pass widens its query rows into one buffer per worker, not into a
// fresh row per point.
func TestExDPCFloat32Allocs(t *testing.T) {
	d := data.PAMAP2Like(5000, 1)
	p := Params{DCut: d.DCut, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin, Workers: 2}
	f64ds, f32ds := d.Points, d.Points.ToFloat32()
	count := func(name string, fit func() error) float64 {
		n := testing.AllocsPerRun(3, func() {
			if err := fit(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per fit", name, n)
		return n
	}
	f64 := count("f64", func() error { _, err := ExDPC{}.ClusterDataset(f64ds, p); return err })
	f32 := count("f32", func() error { _, err := ExDPC{}.ClusterDataset(f32ds, p); return err })
	if f32 > 1.1*f64 {
		t.Fatalf("f32 fit makes %.0f allocations, f64 %.0f: more than 10%% apart", f32, f64)
	}
}
