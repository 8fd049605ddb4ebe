package kdtree

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/data"
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
	tr := Build(geom.MustFromRows([][]float64{{5, 5}}), nil, 1)
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
	tr := Build(geom.MustFromRows(pts), append([]int32(nil), ids...), 1)
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
	vals := make([]float64, 101)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for _, n := range []int{0, 1, 50, 99, 100} {
		ids := make([]int32, len(vals))
		for i := range ids {
			ids[i] = int32(i)
		}
		rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
		keys := make([]float64, len(ids))
		for k, id := range ids {
			keys[k] = vals[id]
		}
		selectNth(keys, ids, n)
		if keys[n] != sorted[n] {
			t.Fatalf("selectNth(%d) = %v, want %v", n, keys[n], sorted[n])
		}
		for k, id := range ids {
			if keys[k] != vals[id] {
				t.Fatalf("selectNth(%d): key %d is %v, its id %d has %v", n, k, keys[k], id, vals[id])
			}
		}
	}
}

// TestBuildWorkerInvariance requires the same tree — ids, nodes and
// copied rows — at 1, 2 and 3 workers, on random, duplicate-heavy, f32
// and subset fixtures, both at the default fork threshold and with
// forks allowed down to a few leaves.
func TestBuildWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	random := geom.MustFromRows(randPts(rng, 3*forkMin, 3, 100))
	dups := geom.MustFromRows(dupPts(rng, 3*forkMin, 2))
	fixtures := map[string]struct {
		ds  *geom.Dataset
		ids []int32
	}{
		"random":     {random, allIDs(random.N)},
		"duplicates": {dups, allIDs(dups.N)},
		"f32 random": {random.ToFloat32(), allIDs(random.N)},
		"8-d f32":    {geom.MustFromRows(randPts(rng, 2*forkMin+5, 8, 10)).ToFloat32(), allIDs(2*forkMin + 5)},
		"subset":     {random, permKey(rng, random.N)[:forkMin+forkMin/2]},
	}
	old := forkMin
	defer func() { forkMin = old }()
	for _, fork := range []int{old, 3 * leafSize} {
		forkMin = fork
		for name, f := range fixtures {
			want := Build(f.ds, slices.Clone(f.ids), 1)
			if err := want.Validate(); err != nil {
				t.Fatalf("fork=%d %s: %v", fork, name, err)
			}
			for _, workers := range []int{2, 3} {
				got := Build(f.ds, slices.Clone(f.ids), workers)
				if !slices.Equal(got.ids, want.ids) || !slices.Equal(got.nodes, want.nodes) {
					t.Fatalf("fork=%d %s: the %d-worker tree differs from the 1-worker tree", fork, name, workers)
				}
				if !slices.Equal(got.rows.Coords, want.rows.Coords) || !slices.Equal(got.rows.Coords32, want.rows.Coords32) {
					t.Fatalf("fork=%d %s: the %d-worker rows differ", fork, name, workers)
				}
			}
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

// BenchmarkBuildAll builds a tree over 20,000 random 8-d points on one
// worker and on every CPU.
func BenchmarkBuildAll(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	ds := geom.MustFromRows(randPts(rng, 20000, 8, 100))
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BuildAllWorkers(ds, workers)
			}
		})
	}
}

// countSink keeps BenchmarkSelfCounts's results live.
var countSink int

// BenchmarkSelfCounts runs Ex-DPC's density pass at d_cut on the 20k S2
// and PAMAP2 stand-ins on one worker, both ways: one RangeCount per
// point in tree order, and the SelfCounts leaf-pair join.
func BenchmarkSelfCounts(b *testing.B) {
	for _, d := range []*data.Dataset{data.SSet(2, 20000, 1), data.PAMAP2Like(20000, 1)} {
		tr := BuildAll(d.Points)
		b.Run(d.Name+"/range-count", func(b *testing.B) {
			buf := make([]float64, d.Points.Dim)
			for i := 0; i < b.N; i++ {
				for _, id := range tr.Order() {
					countSink += tr.RangeCount(d.Points.AtBuf(int(id), buf), d.DCut)
				}
			}
		})
		b.Run(d.Name+"/self-join", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				countSink += int(tr.SelfCounts(d.DCut, 1)[0])
			}
		})
	}
}
