package kdtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

func bruteKNN(pts [][]float64, q []float64, k int) []float64 {
	sqs := make([]float64, len(pts))
	for i, p := range pts {
		sqs[i] = geom.SqDist(q, p)
	}
	sort.Float64s(sqs)
	if k > len(sqs) {
		k = len(sqs)
	}
	return sqs[:k]
}

func TestKNNMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{1, 2, 3, 8} {
		pts := randPts(rng, 600, d, 50)
		tr := BuildAll(geom.MustFromRows(pts))
		for trial := 0; trial < 40; trial++ {
			q := randPts(rng, 1, d, 60)[0]
			k := 1 + rng.Intn(20)
			want := bruteKNN(pts, q, k)
			ids, sqs := tr.KNN(q, k)
			if len(ids) != k {
				t.Fatalf("d=%d k=%d: got %d results", d, k, len(ids))
			}
			for i := range sqs {
				if math.Abs(sqs[i]-want[i]) > 1e-9 {
					t.Fatalf("d=%d k=%d rank %d: sq %v, want %v", d, k, i, sqs[i], want[i])
				}
				if math.Abs(sqs[i]-geom.SqDist(q, pts[ids[i]])) > 1e-9 {
					t.Fatalf("reported distance does not match reported id")
				}
			}
		}
	}
}

func TestKNNOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randPts(rng, 300, 2, 10)
	tr := BuildAll(geom.MustFromRows(pts))
	_, sqs := tr.KNN([]float64{5, 5}, 25)
	for i := 1; i < len(sqs); i++ {
		if sqs[i] < sqs[i-1] {
			t.Fatal("KNN results not in ascending order")
		}
	}
}

func TestKNNSmallTree(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 0}}
	tr := BuildAll(geom.MustFromRows(pts))
	ids, _ := tr.KNN([]float64{0, 0}, 10)
	if len(ids) != 2 {
		t.Fatalf("k > n: got %d results, want 2", len(ids))
	}
	if ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("order wrong: %v", ids)
	}
	if ids, _ := tr.KNN([]float64{0, 0}, 0); ids != nil {
		t.Error("k=0 should return nil")
	}
	empty := Build(geom.MustFromRows(pts), nil, 1)
	if ids, _ := empty.KNN([]float64{0, 0}, 3); ids != nil {
		t.Error("empty tree should return nil")
	}
}
