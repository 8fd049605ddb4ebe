package lsh

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func randPts(rng *rand.Rand, n, d int, scale float64) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64() * scale
		}
		pts[i] = p
	}
	return pts
}

func TestCandidatesNoSelfNoDup(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randPts(rng, 500, 3, 100)
	f := Build(geom.MustFromRows(pts), Params{Tables: 5, Hashes: 2, Width: 30, Seed: 7})
	stamp := make([]int32, len(pts))
	for i := int32(0); i < 100; i++ {
		seen := map[int32]bool{}
		f.Candidates(i, stamp, i+1, func(j int32) {
			if j == i {
				t.Fatalf("self returned as candidate")
			}
			if seen[j] {
				t.Fatalf("duplicate candidate %d for point %d", j, i)
			}
			seen[j] = true
		})
	}
}

func TestClosePointsShareBuckets(t *testing.T) {
	// Two tight clusters far apart: with width ~ cluster spread, nearly all
	// intra-cluster pairs should be candidates and no inter-cluster pair
	// should dominate. LSH is probabilistic, so assert loose bounds.
	rng := rand.New(rand.NewSource(2))
	var pts [][]float64
	for i := 0; i < 50; i++ {
		pts = append(pts, []float64{rng.NormFloat64(), rng.NormFloat64()})
	}
	for i := 0; i < 50; i++ {
		pts = append(pts, []float64{1000 + rng.NormFloat64(), 1000 + rng.NormFloat64()})
	}
	f := Build(geom.MustFromRows(pts), Params{Tables: 6, Hashes: 2, Width: 20, Seed: 3})
	stamp := make([]int32, len(pts))
	intra, inter := 0, 0
	for i := int32(0); i < int32(len(pts)); i++ {
		f.Candidates(i, stamp, i+1, func(j int32) {
			if (i < 50) == (j < 50) {
				intra++
			} else {
				inter++
			}
		})
	}
	if intra == 0 {
		t.Fatal("no intra-cluster candidates at all")
	}
	if inter > intra/4 {
		t.Errorf("too many inter-cluster candidates: intra=%d inter=%d", intra, inter)
	}
}

func TestRecallWithinWidth(t *testing.T) {
	// For points within width/4 of each other, multi-table LSH should find
	// most pairs. Statistical test with a generous threshold.
	rng := rand.New(rand.NewSource(4))
	pts := randPts(rng, 400, 2, 200)
	w := 40.0
	f := Build(geom.MustFromRows(pts), DefaultParams(w/4))
	stamp := make([]int32, len(pts))
	found, total := 0, 0
	for i := int32(0); i < int32(len(pts)); i++ {
		cand := map[int32]bool{}
		f.Candidates(i, stamp, i+1, func(j int32) { cand[j] = true })
		for j := int32(0); j < int32(len(pts)); j++ {
			if j == i {
				continue
			}
			if geom.Dist(pts[i], pts[j]) < w/4 {
				total++
				if cand[j] {
					found++
				}
			}
		}
	}
	if total == 0 {
		t.Skip("no close pairs generated")
	}
	if recall := float64(found) / float64(total); recall < 0.5 {
		t.Errorf("recall of close pairs = %.2f, want >= 0.5", recall)
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPts(rng, 200, 3, 50)
	p := Params{Tables: 3, Hashes: 2, Width: 10, Seed: 42}
	a, b := Build(geom.MustFromRows(pts), p), Build(geom.MustFromRows(pts), p)
	sa, sb := bucketSizes(a), bucketSizes(b)
	if len(sa) != len(sb) {
		t.Fatal("bucket structure differs between identical builds")
	}
}

func TestParamCoercion(t *testing.T) {
	pts := [][]float64{{1, 2}, {3, 4}}
	f := Build(geom.MustFromRows(pts), Params{Tables: 0, Hashes: 0, Width: 5})
	if len(f.tables) != 1 {
		t.Errorf("Tables coerced to %d, want 1", len(f.tables))
	}
	defer func() {
		if recover() == nil {
			t.Error("zero width must panic")
		}
	}()
	Build(geom.MustFromRows(pts), Params{Tables: 1, Hashes: 1, Width: 0})
}

func TestBucketSizesSumPerTable(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randPts(rng, 300, 2, 100)
	f := Build(geom.MustFromRows(pts), Params{Tables: 3, Hashes: 1, Width: 25, Seed: 9})
	total := 0
	for _, s := range bucketSizes(f) {
		total += s
	}
	if total != 3*len(pts) {
		t.Errorf("bucket sizes sum to %d, want %d", total, 3*len(pts))
	}
}

// bucketSizes returns the size of every bucket in every table; the
// paper's complexity expression O(M * sum b^2) is in terms of these.
func bucketSizes(f *Forest) []int {
	var out []int
	for t := range f.tables {
		for _, b := range f.tables[t].buckets {
			out = append(out, len(b))
		}
	}
	return out
}
