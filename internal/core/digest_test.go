package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/geom"
)

// resultDigest is the FNV-64a hash of every output bit of a fit: Rho,
// Delta, Dep, Centers and Labels, in that order, little-endian.
func resultDigest(r *Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	f64s := func(xs []float64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	i32s := func(xs []int32) {
		for _, x := range xs {
			binary.LittleEndian.PutUint32(b[:4], uint32(x))
			h.Write(b[:4])
		}
	}
	f64s(r.Rho)
	f64s(r.Delta)
	i32s(r.Dep)
	i32s(r.Centers)
	i32s(r.Labels)
	return h.Sum64()
}

// latticed returns a copy of d with every coordinate rounded to a
// multiple of step, so that equal distances, and distances of exactly
// d_cut, are common: every accept rule's tie case is then reached.
func latticed(d *data.Dataset, step float64) *data.Dataset {
	coords := make([]float64, len(d.Points.Coords))
	for i, x := range d.Points.Coords {
		coords[i] = math.Round(x/step) * step
	}
	c := *d
	c.Name += "-lattice"
	c.Points = geom.NewDataset(coords, d.Points.Dim)
	return &c
}

// digestGolden pins the output bits of every registered algorithm on
// small S2 (2-d), S2 rounded to a lattice of side d_cut/10 (ties), and
// the Sensor stand-in (8-d, the only one where the distance kernel
// checks its limit inside a row), each at f64 and f32. Keys are
// "dataset/precision/algorithm".
var digestGolden = map[string]uint64{
	"S2/f64/Scan":                  0x12e463e74c99b9ac, // 14 clusters
	"S2/f64/R-tree + Scan":         0x12e463e74c99b9ac, // 14 clusters
	"S2/f64/LSH-DDP":               0x597270a428767eeb, // 15 clusters
	"S2/f64/CFSFDP-A":              0x12e463e74c99b9ac, // 14 clusters
	"S2/f64/Ex-DPC":                0x12e463e74c99b9ac, // 14 clusters
	"S2/f64/Approx-DPC":            0xce3770c864fba491, // 14 clusters
	"S2/f64/S-Approx-DPC":          0x67f7b561c382c5ee, // 14 clusters
	"S2/f64/FastDPeak":             0x12e463e74c99b9ac, // 14 clusters
	"S2/f64/DPCG":                  0x12e463e74c99b9ac, // 14 clusters
	"S2/f64/CFSFDP-DE":             0xfa1227e548202083, // 16 clusters
	"S2/f32/Scan":                  0x00a46991955c50c6, // 14 clusters
	"S2/f32/R-tree + Scan":         0x00a46991955c50c6, // 14 clusters
	"S2/f32/LSH-DDP":               0x2601c20b63ea6309, // 15 clusters
	"S2/f32/CFSFDP-A":              0x00a46991955c50c6, // 14 clusters
	"S2/f32/Ex-DPC":                0x00a46991955c50c6, // 14 clusters
	"S2/f32/Approx-DPC":            0x6d5bef38e6408d00, // 14 clusters
	"S2/f32/S-Approx-DPC":          0xa2b8d049de91d867, // 14 clusters
	"S2/f32/FastDPeak":             0x00a46991955c50c6, // 14 clusters
	"S2/f32/DPCG":                  0x00a46991955c50c6, // 14 clusters
	"S2/f32/CFSFDP-DE":             0x5aea388fbd5ceaa3, // 16 clusters
	"S2-lattice/f64/Scan":          0x90a56cfc8938aa50, // 14 clusters
	"S2-lattice/f64/R-tree + Scan": 0x90a56cfc8938aa50, // 14 clusters
	"S2-lattice/f64/LSH-DDP":       0xa8ef0145fb5cb733, // 14 clusters
	"S2-lattice/f64/CFSFDP-A":      0x90a56cfc8938aa50, // 14 clusters
	"S2-lattice/f64/Ex-DPC":        0x90a56cfc8938aa50, // 14 clusters
	"S2-lattice/f64/Approx-DPC":    0x76e8d44f8b914144, // 14 clusters
	"S2-lattice/f64/S-Approx-DPC":  0xcf2f2bc08460f8dc, // 14 clusters
	"S2-lattice/f64/FastDPeak":     0xbea6dcd1ec96f935, // 14 clusters
	"S2-lattice/f64/DPCG":          0x6d6e9842312a1e9f, // 14 clusters
	"S2-lattice/f64/CFSFDP-DE":     0x53d93a98d77868ab, // 16 clusters
	"S2-lattice/f32/Scan":          0x90a56cfc8938aa50, // 14 clusters
	"S2-lattice/f32/R-tree + Scan": 0x90a56cfc8938aa50, // 14 clusters
	"S2-lattice/f32/LSH-DDP":       0xa8ef0145fb5cb733, // 14 clusters
	"S2-lattice/f32/CFSFDP-A":      0x90a56cfc8938aa50, // 14 clusters
	"S2-lattice/f32/Ex-DPC":        0x90a56cfc8938aa50, // 14 clusters
	"S2-lattice/f32/Approx-DPC":    0x76e8d44f8b914144, // 14 clusters
	"S2-lattice/f32/S-Approx-DPC":  0xcf2f2bc08460f8dc, // 14 clusters
	"S2-lattice/f32/FastDPeak":     0xbea6dcd1ec96f935, // 14 clusters
	"S2-lattice/f32/DPCG":          0x6d6e9842312a1e9f, // 14 clusters
	"S2-lattice/f32/CFSFDP-DE":     0x53d93a98d77868ab, // 16 clusters
	"Sensor/f64/Scan":              0xf89d8ad973f62b9b, // 16 clusters
	"Sensor/f64/R-tree + Scan":     0xf89d8ad973f62b9b, // 16 clusters
	"Sensor/f64/LSH-DDP":           0x3905d10065a0a7f6, // 17 clusters
	"Sensor/f64/CFSFDP-A":          0xf89d8ad973f62b9b, // 16 clusters
	"Sensor/f64/Ex-DPC":            0xf89d8ad973f62b9b, // 16 clusters
	"Sensor/f64/Approx-DPC":        0x186fb0236ce11a02, // 16 clusters
	"Sensor/f64/S-Approx-DPC":      0x6775f29887df3bb0, // 16 clusters
	"Sensor/f64/FastDPeak":         0xf89d8ad973f62b9b, // 16 clusters
	"Sensor/f64/DPCG":              0xf89d8ad973f62b9b, // 16 clusters
	"Sensor/f64/CFSFDP-DE":         0x8e4711935d1eee69, // 19 clusters
	"Sensor/f32/Scan":              0xb837cde2cb395cce, // 16 clusters
	"Sensor/f32/R-tree + Scan":     0xb837cde2cb395cce, // 16 clusters
	"Sensor/f32/LSH-DDP":           0xedf2097fd95a56ec, // 17 clusters
	"Sensor/f32/CFSFDP-A":          0xb837cde2cb395cce, // 16 clusters
	"Sensor/f32/Ex-DPC":            0xb837cde2cb395cce, // 16 clusters
	"Sensor/f32/Approx-DPC":        0x38c959eace2480c9, // 16 clusters
	"Sensor/f32/S-Approx-DPC":      0xc0f8b9653e4d4f1a, // 16 clusters
	"Sensor/f32/FastDPeak":         0xb837cde2cb395cce, // 16 clusters
	"Sensor/f32/DPCG":              0xb837cde2cb395cce, // 16 clusters
	"Sensor/f32/CFSFDP-DE":         0xaecec0590e8e1995, // 19 clusters
}

// TestResultDigestsPinned requires every Rho, Delta, Dep, Centers and
// Labels bit of all ten algorithms to match digestGolden at 1 and 2
// workers. Any change to a distance kernel call, an accept rule or a
// tie-break shows up here, including in the approximate baselines that
// no exactness oracle covers.
func TestResultDigestsPinned(t *testing.T) {
	s2 := data.SSet(2, 1200, 7)
	sets := []*data.Dataset{s2, latticed(s2, s2.DCut/10), data.SensorLike(1200, 7)}
	for _, d := range sets {
		for _, ds := range []*geom.Dataset{d.Points, d.Points.ToFloat32()} {
			for _, alg := range Registered() {
				key := fmt.Sprintf("%s/%s/%s", d.Name, ds.Precision(), alg.Name())
				for _, workers := range []int{1, 2} {
					p := Params{DCut: d.DCut, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin, Workers: workers, Epsilon: 0.8, Seed: 1}
					res, err := alg.ClusterDataset(ds, p)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", key, workers, err)
					}
					if got, want := resultDigest(res), digestGolden[key]; got != want {
						t.Errorf("%s workers=%d: digest %#016x, want %#016x (%d clusters)", key, workers, got, want, res.NumClusters())
					}
				}
			}
		}
	}
}
