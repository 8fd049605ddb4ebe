package kdtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

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

func bruteNN(pts [][]float64, ids []int32, q []float64) (int32, float64) {
	best, bestSq := int32(-1), math.Inf(1)
	for _, id := range ids {
		if d := geom.SqDist(q, pts[id]); d < bestSq {
			best, bestSq = id, d
		}
	}
	return best, bestSq
}

func TestBuildValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{1, 2, 3, 8} {
		pts := randPts(rng, 500, d, 100)
		tr := BuildAll(geom.MustFromRows(pts))
		if tr.Len() != 500 {
			t.Fatalf("d=%d: Len = %d, want 500", d, tr.Len())
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
	}
}

func TestBuildBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randPts(rng, 1<<12, 2, 100)
	tr := BuildAll(geom.MustFromRows(pts))
	// A median-split tree over 4096 points has height 13; allow slack for
	// duplicate-coordinate ties.
	if h := tr.Height(); h > 16 {
		t.Errorf("height = %d, want <= 16 for 4096 points", h)
	}
}

func TestBuildDuplicatePoints(t *testing.T) {
	// All points identical: the tree must still build, validate, and answer.
	pts := make([][]float64, 64)
	for i := range pts {
		pts[i] = []float64{1, 2}
	}
	tr := BuildAll(geom.MustFromRows(pts))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.RangeCount([]float64{1, 2}, 0.5); got != 64 {
		t.Errorf("RangeCount over duplicates = %d, want 64", got)
	}
	id, sq := tr.NN([]float64{0, 0})
	if id != 0 || sq != 5 {
		t.Errorf("NN over duplicates = (%d, %v)", id, sq)
	}
}

func TestRangeCountMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{1, 2, 3, 5, 8} {
		pts := randPts(rng, 800, d, 50)
		tr := BuildAll(geom.MustFromRows(pts))
		for i := 0; i < 50; i++ {
			q := pts[rng.Intn(len(pts))]
			r := rng.Float64() * 20
			want := len(bruteRange(pts, q, r))
			if got := tr.RangeCount(q, r); got != want {
				t.Fatalf("d=%d: RangeCount(%v, %v) = %d, want %d", d, q, r, got, want)
			}
		}
	}
}

func TestRangeSearchMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randPts(rng, 600, 3, 50)
	tr := BuildAll(geom.MustFromRows(pts))
	for i := 0; i < 40; i++ {
		q := randPts(rng, 1, 3, 50)[0]
		r := rng.Float64() * 25
		want := bruteRange(pts, q, r)
		var got []int32
		tr.RangeSearch(q, r, func(id int32, sq float64) {
			if math.Abs(sq-geom.SqDist(q, pts[id])) > 1e-9 {
				t.Fatalf("reported sqdist %v != actual %v", sq, geom.SqDist(q, pts[id]))
			}
			got = append(got, id)
		})
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		if len(got) != len(want) {
			t.Fatalf("RangeSearch size %d, want %d", len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("RangeSearch ids %v, want %v", got, want)
			}
		}
	}
}

func TestRangeStrictInequality(t *testing.T) {
	// Definition 1 counts dist < d_cut strictly: a point exactly at radius r
	// must not be counted.
	pts := [][]float64{{0, 0}, {3, 0}, {2.999, 0}}
	tr := BuildAll(geom.MustFromRows(pts))
	if got := tr.RangeCount([]float64{0, 0}, 3); got != 2 {
		t.Errorf("strict range count = %d, want 2 (self + 2.999)", got)
	}
}

func TestNNMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range []int{1, 2, 4, 8} {
		pts := randPts(rng, 700, d, 50)
		ids := make([]int32, len(pts))
		for i := range ids {
			ids[i] = int32(i)
		}
		tr := BuildAll(geom.MustFromRows(pts))
		for i := 0; i < 60; i++ {
			q := randPts(rng, 1, d, 60)[0]
			wantID, wantSq := bruteNN(pts, ids, q)
			gotID, gotSq := tr.NN(q)
			if gotID != wantID || math.Float64bits(gotSq) != math.Float64bits(wantSq) {
				t.Fatalf("d=%d: NN = (%d, %v), want (%d, %v)", d, gotID, gotSq, wantID, wantSq)
			}
		}
	}
}

func TestNNEmpty(t *testing.T) {
	tr := Build(geom.MustFromRows([][]float64{{5, 5}}), nil)
	if id, sq := tr.NN([]float64{0, 0}); id != -1 || !math.IsInf(sq, 1) {
		t.Errorf("NN on empty tree = (%d, %v), want (-1, +Inf)", id, sq)
	}
	if got := tr.RangeCount([]float64{0, 0}, 10); got != 0 {
		t.Errorf("RangeCount on empty tree = %d", got)
	}
}

func TestBuildSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := randPts(rng, 200, 2, 10)
	ids := []int32{5, 17, 99, 150, 151, 152}
	tr := Build(geom.MustFromRows(pts), append([]int32(nil), ids...))
	if tr.Len() != len(ids) {
		t.Fatalf("subset Len = %d", tr.Len())
	}
	q := []float64{5, 5}
	wantID, wantSq := bruteNN(pts, ids, q)
	gotID, gotSq := tr.NN(q)
	if gotSq != wantSq {
		t.Errorf("subset NN = (%d,%v), want (%d,%v)", gotID, gotSq, wantID, wantSq)
	}
}

func TestQuickPropertyRangeConsistency(t *testing.T) {
	// Property: for random data and queries, tree range count == brute count.
	type q struct {
		Seed int64
		R    float64
	}
	f := func(in q) bool {
		rng := rand.New(rand.NewSource(in.Seed))
		pts := randPts(rng, 150, 2, 30)
		tr := BuildAll(geom.MustFromRows(pts))
		r := math.Mod(math.Abs(in.R), 30)
		qp := randPts(rng, 1, 2, 30)[0]
		return tr.RangeCount(qp, r) == len(bruteRange(pts, qp, r))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSelectNth(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := randPts(rng, 101, 1, 1000)
	tr := &Tree{ds: geom.MustFromRows(pts), dim: 1}
	ids := make([]int32, len(pts))
	for i := range ids {
		ids[i] = int32(i)
	}
	for _, n := range []int{0, 1, 50, 99, 100} {
		shuffled := append([]int32(nil), ids...)
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		tr.selectNth(shuffled, n, 0)
		vals := make([]float64, len(pts))
		for i, id := range shuffled {
			vals[i] = pts[id][0]
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		if vals[n] != sorted[n] {
			t.Fatalf("selectNth(%d) = %v, want %v", n, vals[n], sorted[n])
		}
	}
}

func BenchmarkRangeCount(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	pts := randPts(rng, 100000, 3, 1000)
	tr := BuildAll(geom.MustFromRows(pts))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RangeCount(pts[i%len(pts)], 20)
	}
}

func BenchmarkNN(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	pts := randPts(rng, 100000, 3, 1000)
	tr := BuildAll(geom.MustFromRows(pts))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.NN(pts[i%len(pts)])
	}
}
