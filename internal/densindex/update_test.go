package densindex

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/kdtree"
)

// sameIndex requires bit-exact equality of two indexes' CSR arrays —
// the update contract is byte-identity with a fresh build, the same bar
// the index itself holds against fresh fits — and holds both to the row
// oracle.
func sameIndex(t *testing.T, got, want *Index) {
	t.Helper()
	if got.dcMax != want.dcMax {
		t.Fatalf("dcMax = %g, want %g", got.dcMax, want.dcMax)
	}
	if !slices.Equal(got.start, want.start) {
		t.Fatalf("start offsets differ (lengths %d, %d)", len(got.start), len(want.start))
	}
	sameInt32(t, "ids", got.ids, want.ids)
	checkRows(t, "update", got)
	checkRows(t, "build", want)
}

// checkRows is the row oracle: by brute force over every pair, each CSR
// row i of x must hold exactly the points j != i with
// SqDistIdx(i, j) < dcMax², in (SqDistIdx, id) order. It sorts with the
// standard library, so it shares no code with the index's own sort.
func checkRows(t *testing.T, what string, x *Index) {
	t.Helper()
	n := x.ds.N
	if len(x.start) != n+1 {
		t.Fatalf("%s: %d row offsets for %d points", what, len(x.start), n)
	}
	limit := x.dcMax * x.dcMax
	var want []edge
	for i := int32(0); i < int32(n); i++ {
		want = want[:0]
		for j := int32(0); j < int32(n); j++ {
			if d := geom.SqDistIdx(x.ds, i, j); j != i && d < limit {
				want = append(want, edge{sq: d, id: j})
			}
		}
		slices.SortFunc(want, func(a, b edge) int {
			return cmp.Or(cmp.Compare(a.sq, b.sq), cmp.Compare(a.id, b.id))
		})
		got := x.ids[x.start[i]:x.start[i+1]]
		if len(got) != len(want) {
			t.Fatalf("%s: row %d holds %d neighbors, want %d", what, i, len(got), len(want))
		}
		for k, e := range want {
			if got[k] != e.id {
				t.Fatalf("%s: row %d entry %d is point %d, want %d (sq %v)", what, i, k, got[k], e.id, e.sq)
			}
		}
	}
}

// TestRowsMatchBruteForce holds Build and one Update of every shape to
// the row oracle on tie-heavy grids — duplicate rows, equal distances —
// at both precisions and one to four workers.
func TestRowsMatchBruteForce(t *testing.T) {
	for _, dim := range []int{2, 4, 8} {
		for _, f32 := range []bool{false, true} {
			full := tieRows(700, dim, int64(dim))
			if f32 {
				full = full.ToFloat32()
			}
			for workers := 1; workers <= 4; workers++ {
				t.Run(fmt.Sprintf("d=%d/f32=%v/workers=%d", dim, f32, workers), func(t *testing.T) {
					idx, err := Build(window(full, 0, 500), 2.5, workers, 0)
					if err != nil {
						t.Fatal(err)
					}
					checkRows(t, "build", idx)
					got, err := Update(idx, window(full, 120, 700), 120, 200, workers, 0)
					if err != nil {
						t.Fatal(err)
					}
					checkRows(t, "update", got)
				})
			}
		}
	}
}

// window cuts a zero-copy row window [lo, hi) out of a backing dataset,
// at the backing dataset's precision.
func window(full *geom.Dataset, lo, hi int) *geom.Dataset {
	if full.Float32() {
		return geom.NewDataset32(full.Coords32[lo*full.Dim:hi*full.Dim], full.Dim)
	}
	return geom.NewDataset(full.Coords[lo*full.Dim:hi*full.Dim], full.Dim)
}

// TestUpdateMatchesBuild slides a window over a backing dataset in
// several shapes — append only, expire only, mixed, expire-all — and
// requires Update's output to be byte-identical to a fresh Build of the
// slid window, at both storage precisions.
func TestUpdateMatchesBuild(t *testing.T) {
	const oldN = 900
	backing := data.SSet(2, 1500, 7).Points
	cases := []struct{ expired, appended int }{
		{0, 200},
		{200, 0},
		{150, 250},
		{oldN, 300}, // expire-all: nothing survives, pure rebuild of the appends
		{1, 1},
	}
	for _, f32 := range []bool{false, true} {
		full := backing
		if f32 {
			full = full.ToFloat32()
		}
		old := window(full, 0, oldN)
		oldIdx, err := Build(old, dcCeiling, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			t.Run(fmt.Sprintf("f32=%v/expire%d_append%d", f32, c.expired, c.appended), func(t *testing.T) {
				nds := window(full, c.expired, oldN+c.appended)
				got, err := Update(oldIdx, nds, c.expired, c.appended, 4, 0)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Build(nds, dcCeiling, 4, 0)
				if err != nil {
					t.Fatal(err)
				}
				sameIndex(t, got, want)
			})
		}
	}
	for _, dim := range []int{2, 4, 8} {
		for _, f32 := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("chained/d=%d/f32=%v/workers=%d", dim, f32, workers), func(t *testing.T) {
					chainedSlides(t, dim, f32, workers)
				})
			}
		}
	}
}

// tieRows draws n points from a coarse integer grid, so duplicate rows
// and exactly equal distances are common, and makes every seventh row
// from 100 on a copy of the row 97 before it: an appended copy of a
// survivor stores an edge at squared distance 0.
func tieRows(n, dim int, seed int64) *geom.Dataset {
	rng := rand.New(rand.NewSource(seed))
	side := map[int]int{2: 12, 4: 6, 8: 3}[dim]
	rows := make([][]float64, n)
	for i := range rows {
		if i >= 100 && i%7 == 0 {
			rows[i] = rows[i-97]
			continue
		}
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			rows[i][j] = float64(rng.Intn(side))
		}
	}
	return geom.MustFromRows(rows)
}

// chainedSlides slides one window through a chain of Updates, each from
// the previous Update's output, in every shape — mixed, append-only,
// expire-only, one in one out, expire-all and a slide after it — and
// requires each result to equal a fresh Build of its window, to hold
// the kd-tree a fresh BuildAll of that window makes, and to cut without
// building a tree.
func chainedSlides(t *testing.T, dim int, f32 bool, workers int) {
	const oldN, dcMax = 600, 2.5
	slides := []struct{ expired, appended int }{
		{100, 150}, {0, 120}, {130, 0}, {1, 1}, {200, 200}, {-1, 80}, {10, 40},
	}
	full := tieRows(2000, dim, int64(dim))
	if f32 {
		full = full.ToFloat32()
	}
	lo, hi := 0, oldN
	idx, err := Build(window(full, lo, hi), dcMax, workers, 0)
	if err != nil {
		t.Fatal(err)
	}
	for step, sl := range slides {
		expired := sl.expired
		if expired < 0 {
			expired = hi - lo
		}
		lo, hi = lo+expired, hi+sl.appended
		nds := window(full, lo, hi)
		got, err := Update(idx, nds, expired, sl.appended, workers, 0)
		if err != nil {
			t.Fatalf("slide %d: %v", step, err)
		}
		want, err := Build(nds, dcMax, workers, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameIndex(t, got, want)
		if got.Edges() == 0 {
			t.Fatalf("slide %d: no edges; the fixture tests nothing", step)
		}
		if !slices.Equal(got.Tree().Order(), kdtree.BuildAll(nds).Order()) {
			t.Fatalf("slide %d: the updated index's kd-tree differs from BuildAll's", step)
		}
		res, err := got.Cut(core.Params{DCut: 2, RhoMin: 1, DeltaMin: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Timing.Build != 0 {
			t.Fatalf("slide %d: the cut after Update built a kd-tree (%v)", step, res.Timing.Build)
		}
		idx = got
	}
}

// TestUpdateEdgeBudget requires the update to honor Build's edge budget
// with the same sentinel error.
func TestUpdateEdgeBudget(t *testing.T) {
	full := data.SSet(2, 1200, 3).Points
	old := window(full, 0, 900)
	idx, err := Build(old, dcCeiling, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	nds := window(full, 0, 1200)
	if _, err := Update(idx, nds, 0, 300, 4, 8); !errors.Is(err, ErrTooDense) {
		t.Fatalf("tiny budget: err = %v, want ErrTooDense", err)
	}
}

// TestUpdateValidation covers the shape errors: dimension mismatch,
// negative/oversized expiry, and a dataset that doesn't frame the
// mutation.
func TestUpdateValidation(t *testing.T) {
	full := data.SSet(2, 1000, 5).Points
	old := window(full, 0, 800)
	idx, err := Build(old, dcCeiling, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Update(idx, window(full, 0, 900), 0, 50, 4, 0); err == nil {
		t.Fatal("mismatched point count accepted")
	}
	if _, err := Update(idx, window(full, 0, 800), -1, 1, 4, 0); err == nil {
		t.Fatal("negative expiry accepted")
	}
	if _, err := Update(idx, window(full, 0, 800), 801, 1, 4, 0); err == nil {
		t.Fatal("expiry beyond the window accepted")
	}
	bad := geom.NewDataset(make([]float64, 800*3), 3)
	if _, err := Update(idx, bad, 0, 0, 4, 0); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := Update(nil, old, 0, 0, 4, 0); err == nil {
		t.Fatal("nil index accepted")
	}
}
