package core

import (
	"math/rand"
	"testing"
)

// TestLSHDDPFallbackScan: with a single wide-spread cluster and a tiny
// LSH width, buckets rarely contain a denser candidate, forcing the
// full-scan fallback; the result must still identify one cluster with the
// true density peak as its center.
func TestLSHDDPFallbackScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([][]float64, 600)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64() * 40, rng.NormFloat64() * 40}
	}
	p := Params{DCut: 10, RhoMin: 1, DeltaMin: 60, Workers: 4, Seed: 5}
	ex, _ := ExDPC{}.Cluster(pts, p)
	res, err := LSHDDP{}.Cluster(pts, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() < 1 {
		t.Fatal("no clusters found")
	}
	// The global density peak must agree with the exact algorithm's
	// (densities are approximate, but the Gaussian core is unambiguous:
	// both peaks must lie near the origin).
	peakEx := ex.Centers[0]
	peakLSH := res.Centers[0]
	if dist2(pts[peakEx]) > 40*40 || dist2(pts[peakLSH]) > 40*40 {
		t.Errorf("peaks far from the Gaussian core: ex=%v lsh=%v", pts[peakEx], pts[peakLSH])
	}
}

func dist2(p []float64) float64 { return p[0]*p[0] + p[1]*p[1] }

// TestSApproxNonPickedNeverCenters: with eps > 1 the recorded dependent
// distance of non-picked points is capped at d_cut, so they can never be
// selected as cluster centers (DeltaMin > DCut by definition).
func TestSApproxNonPickedNeverCenters(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts, _ := gaussianMix(rng, 3, 200, 20, 2, 500, 10)
	p := Params{DCut: 20, RhoMin: 2, DeltaMin: 65, Workers: 2, Epsilon: 1.8}
	res, err := SApproxDPC{}.Cluster(pts, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() < 1 {
		t.Fatal("no clusters")
	}
	// Every center must be a picked point, i.e. its delta came from the
	// picked-point machinery: recorded deltas of non-picked points equal
	// min(eps,1)*DCut = DCut < DeltaMin.
	for _, c := range res.Centers {
		if res.Delta[c] < p.DeltaMin {
			t.Errorf("center %d has delta %v < DeltaMin", c, res.Delta[c])
		}
	}
}
