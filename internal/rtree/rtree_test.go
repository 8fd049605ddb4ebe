package rtree

import (
	"math"
	"math/rand"
	"sort"
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

func bruteRange(pts [][]float64, q []float64, r float64) []int32 {
	var out []int32
	for i, p := range pts {
		if geom.Dist(q, p) < r {
			out = append(out, int32(i))
		}
	}
	return out
}

// flatPts packs rows into a flat dataset, tolerating the empty case.
func flatPts(pts [][]float64, d int) *geom.Dataset {
	coords := make([]float64, 0, len(pts)*d)
	for _, p := range pts {
		coords = append(coords, p...)
	}
	return geom.NewDataset(coords, d)
}

func TestBuildValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 31, 32, 33, 1000, 5000} {
		for _, d := range []int{1, 2, 4, 8} {
			pts := randPts(rng, n, d, 100)
			tr := Build(flatPts(pts, d), 16)
			if tr.Len() != n {
				t.Fatalf("n=%d d=%d: Len = %d", n, d, tr.Len())
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("n=%d d=%d: %v", n, d, err)
			}
		}
	}
}

func TestRangeCountMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, d := range []int{1, 2, 3, 8} {
		pts := randPts(rng, 900, d, 50)
		tr := Build(geom.MustFromRows(pts), 0) // default fanout
		for i := 0; i < 50; i++ {
			q := randPts(rng, 1, d, 50)[0]
			r := rng.Float64() * 25
			want := len(bruteRange(pts, q, r))
			if got := tr.RangeCount(q, r); got != want {
				t.Fatalf("d=%d: RangeCount = %d, want %d", d, got, want)
			}
		}
	}
}

func TestRangeSearchIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randPts(rng, 400, 2, 30)
	tr := Build(geom.MustFromRows(pts), 8)
	q := []float64{15, 15}
	want := bruteRange(pts, q, 10)
	var got []int32
	tr.RangeSearch(q, 10, func(id int32, sq float64) {
		if math.Abs(sq-geom.SqDist(q, pts[id])) > 1e-9 {
			t.Fatalf("wrong sqdist for %d", id)
		}
		got = append(got, id)
	})
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	if len(got) != len(want) {
		t.Fatalf("got %d ids, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ids mismatch: %v vs %v", got, want)
		}
	}
}

func TestStrictInequality(t *testing.T) {
	pts := [][]float64{{0, 0}, {5, 0}}
	tr := Build(geom.MustFromRows(pts), 4)
	if got := tr.RangeCount([]float64{0, 0}, 5); got != 1 {
		t.Errorf("point at exactly r must be excluded: count = %d", got)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	tr := Build(&geom.Dataset{}, 4)
	if got := tr.RangeCount([]float64{0}, 10); got != 0 {
		t.Errorf("empty tree count = %d", got)
	}
	tr = Build(geom.MustFromRows([][]float64{{3, 3}}), 4)
	if got := tr.RangeCount([]float64{3, 3}, 1); got != 1 {
		t.Errorf("single point count = %d", got)
	}
	if h := levels(tr); h != 1 {
		t.Errorf("single point height = %d", h)
	}
}

// levels counts the tree's levels along its first-child path; Validate
// checks that every leaf sits at that one depth.
func levels(t *Tree) int {
	h := 0
	for n := t.root; n != nil; n = n.entries[0].child {
		h++
		if n.leaf {
			break
		}
	}
	return h
}

func TestHeightLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randPts(rng, 32*32*4, 2, 100)
	tr := Build(geom.MustFromRows(pts), 32)
	// 4096 points, fanout 32: 128 leaves -> 4 internal -> 1 root = 3 levels.
	if h := levels(tr); h > 4 {
		t.Errorf("height = %d, want <= 4", h)
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := make([][]float64, 100)
	for i := range pts {
		pts[i] = []float64{7, 7, 7}
	}
	tr := Build(geom.MustFromRows(pts), 8)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.RangeCount([]float64{7, 7, 7}, 0.001); got != 100 {
		t.Errorf("duplicate count = %d, want 100", got)
	}
}

func BenchmarkRangeCount(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pts := randPts(rng, 100000, 3, 1000)
	tr := Build(geom.MustFromRows(pts), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RangeCount(pts[i%len(pts)], 20)
	}
}
