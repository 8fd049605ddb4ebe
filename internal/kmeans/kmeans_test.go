package kmeans

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func gauss2(rng *rand.Rand, cx, cy, sd float64, n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{cx + rng.NormFloat64()*sd, cy + rng.NormFloat64()*sd}
	}
	return pts
}

func TestSeparatedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var pts [][]float64
	pts = append(pts, gauss2(rng, 0, 0, 1, 100)...)
	pts = append(pts, gauss2(rng, 100, 0, 1, 100)...)
	pts = append(pts, gauss2(rng, 0, 100, 1, 100)...)
	r := Run(geom.MustFromRows(pts), 3, 50, 7)
	// Each true group must be pure: all members share one assignment.
	for g := 0; g < 3; g++ {
		first := r.Assign[g*100]
		for i := g * 100; i < (g+1)*100; i++ {
			if r.Assign[i] != first {
				t.Fatalf("group %d split across k-means clusters", g)
			}
		}
	}
	// Centroids must sit near the true means.
	for _, c := range r.Centroids {
		ok := geom.Dist(c, []float64{0, 0}) < 5 ||
			geom.Dist(c, []float64{100, 0}) < 5 ||
			geom.Dist(c, []float64{0, 100}) < 5
		if !ok {
			t.Errorf("centroid %v far from every true mean", c)
		}
	}
}

func TestInertiaDecreasesWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := gauss2(rng, 0, 0, 50, 400)
	// inertia is the k-means objective: the sum of squared distances of
	// points to their assigned centroids.
	inertia := func(k int) float64 {
		r := Run(geom.MustFromRows(pts), k, 30, 3)
		var s float64
		for i, p := range pts {
			s += geom.SqDist(p, r.Centroids[r.Assign[i]])
		}
		return s
	}
	i1, i8 := inertia(1), inertia(8)
	if i8 >= i1 {
		t.Errorf("inertia with k=8 (%v) should be below k=1 (%v)", i8, i1)
	}
}

func TestKClamping(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 1}}
	r := Run(geom.MustFromRows(pts), 10, 5, 1)
	if len(r.Centroids) != 2 {
		t.Errorf("k clamped to %d, want 2", len(r.Centroids))
	}
	r = Run(geom.MustFromRows(pts), 0, 5, 1)
	if len(r.Centroids) != 1 {
		t.Errorf("k=0 coerced to %d centroids, want 1", len(r.Centroids))
	}
}

func TestEmptyAndDuplicates(t *testing.T) {
	if r := Run(&geom.Dataset{}, 3, 5, 1); len(r.Centroids) != 0 {
		t.Error("empty input should give empty result")
	}
	pts := make([][]float64, 20)
	for i := range pts {
		pts[i] = []float64{5, 5}
	}
	r := Run(geom.MustFromRows(pts), 4, 10, 1)
	for i := range pts {
		if geom.Dist(r.Centroids[r.Assign[i]], pts[i]) > 1e-9 {
			t.Fatal("duplicate points must map to a coincident centroid")
		}
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := gauss2(rng, 10, 10, 5, 200)
	a := Run(geom.MustFromRows(pts), 5, 20, 99)
	b := Run(geom.MustFromRows(pts), 5, 20, 99)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed produced different assignments")
		}
	}
}

func TestAssignmentIsNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := gauss2(rng, 0, 0, 20, 300)
	r := Run(geom.MustFromRows(pts), 6, 40, 5)
	for i, p := range pts {
		my := geom.SqDist(p, r.Centroids[r.Assign[i]])
		for _, c := range r.Centroids {
			if geom.SqDist(p, c) < my-1e-9 {
				t.Fatalf("point %d not assigned to nearest centroid", i)
			}
		}
	}
}
