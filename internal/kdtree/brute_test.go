package kdtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// brute answers every tree query by scanning the tree's members with the
// full canonical kernel; exact ties go to the lowest dataset id.
type brute struct {
	ds      *geom.Dataset
	members []int32 // ascending dataset ids
}

func newBrute(ds *geom.Dataset, members []int32) brute {
	m := slices.Clone(members)
	slices.Sort(m)
	return brute{ds: ds, members: m}
}

// ranked returns every member as (sq, id) sorted by (sq, id).
func (b brute) ranked(q []float64) []knnItem {
	out := make([]knnItem, len(b.members))
	for i, j := range b.members {
		out[i] = knnItem{sq: geom.SqDistToIdx(b.ds, q, j), id: j}
	}
	slices.SortFunc(out, func(a, c knnItem) int {
		switch {
		case a.less(c):
			return -1
		case c.less(a):
			return 1
		}
		return 0
	})
	return out
}

// checkQueries compares RangeCount, RangeSearch, NN, NNWithBound and KNN
// on tr against b for every query and radius: counts, id sets, ids, and
// the bits of every reported distance.
func checkQueries(t *testing.T, name string, tr *Tree, b brute, queries [][]float64, radii []float64) {
	t.Helper()
	if tr.Len() != len(b.members) {
		t.Fatalf("%s: Len = %d, want %d", name, tr.Len(), len(b.members))
	}
	for qi, q := range queries {
		all := b.ranked(q)
		for _, r := range radii {
			var want []knnItem
			for _, it := range all {
				if it.sq < r*r {
					want = append(want, it)
				}
			}
			if got := tr.RangeCount(q, r); got != len(want) {
				t.Fatalf("%s: query %d r=%v: RangeCount = %d, want %d", name, qi, r, got, len(want))
			}
			var got []knnItem
			tr.RangeSearch(q, r, func(id int32, sq float64) { got = append(got, knnItem{sq: sq, id: id}) })
			slices.SortFunc(got, func(a, c knnItem) int { return int(a.id) - int(c.id) })
			slices.SortFunc(want, func(a, c knnItem) int { return int(a.id) - int(c.id) })
			if !sameItems(got, want) {
				t.Fatalf("%s: query %d r=%v: RangeSearch = %v, want %v", name, qi, r, got, want)
			}
		}

		wantID, wantSq := int32(-1), math.Inf(1)
		if len(all) > 0 {
			wantID, wantSq = all[0].id, all[0].sq
		}
		if id, sq := tr.NN(q); id != wantID || math.Float64bits(sq) != math.Float64bits(wantSq) {
			t.Fatalf("%s: query %d: NN = (%d, %v), want (%d, %v)", name, qi, id, sq, wantID, wantSq)
		}
		if len(all) > 0 {
			// The bound is strict: the nearest distance itself admits
			// nothing, the next float above it admits the nearest point.
			if id, sq := tr.NNWithBound(q, wantSq); id != -1 || sq != wantSq {
				t.Fatalf("%s: query %d: NNWithBound(%v) = (%d, %v), want (-1, %v)", name, qi, wantSq, id, sq, wantSq)
			}
			if id, sq := tr.NNWithBound(q, math.Nextafter(wantSq, math.Inf(1))); id != wantID || math.Float64bits(sq) != math.Float64bits(wantSq) {
				t.Fatalf("%s: query %d: NNWithBound just above = (%d, %v), want (%d, %v)", name, qi, id, sq, wantID, wantSq)
			}
		}

		for _, k := range []int{1, 3, 17} {
			ids, sqs := tr.KNN(q, k)
			got := make([]knnItem, len(ids))
			for i := range ids {
				got[i] = knnItem{sq: sqs[i], id: ids[i]}
			}
			if want := all[:min(k, len(all))]; !sameItems(got, want) {
				t.Fatalf("%s: query %d: KNN(%d) = %v, want %v", name, qi, k, got, want)
			}
		}
	}
}

// checkSelfCounts compares SelfCounts on tr at 1, 2 and 3 workers
// against brute force for every radius: each member's count of members
// whose distance from it, computed with the member as the query, is
// below r. It returns how many ordered member pairs sat exactly on a
// radius, where the strict rule decides.
func checkSelfCounts(t *testing.T, name string, tr *Tree, b brute, radii []float64) (boundary int) {
	t.Helper()
	want := make([][]int32, len(radii))
	for ri := range radii {
		want[ri] = make([]int32, b.ds.N)
	}
	for _, m := range b.members {
		q := b.ds.At(int(m))
		for _, j := range b.members {
			sq := geom.SqDistToIdx(b.ds, q, j)
			for ri, r := range radii {
				if sq < r*r {
					want[ri][m]++
				} else if sq == r*r {
					boundary++
				}
			}
		}
	}
	for ri, r := range radii {
		for _, workers := range []int{1, 2, 3} {
			if got := tr.SelfCounts(r, workers); !slices.Equal(got, want[ri]) {
				t.Fatalf("%s: r=%v workers=%d: SelfCounts = %v, want %v", name, r, workers, got, want[ri])
			}
		}
	}
	return boundary
}

// sameItems compares (sq, id) lists exactly, distance bits included.
func sameItems(a, b []knnItem) bool {
	return slices.EqualFunc(a, b, func(x, y knnItem) bool {
		return x.id == y.id && math.Float64bits(x.sq) == math.Float64bits(y.sq)
	})
}

// checkAll builds a tree over members of ds, validates it, and checks
// every query kind against brute force: the five point queries from
// every dataset point plus extra, SelfCounts over the members, and
// NNLowerKey from every dataset point. It returns checkSelfCounts's
// count of pairs on a radius.
func checkAll(t *testing.T, name string, ds *geom.Dataset, members []int32, extra [][]float64, radii []float64, key []int32) int {
	t.Helper()
	queries := slices.Clone(extra)
	for i := 0; i < ds.N; i++ {
		queries = append(queries, ds.At(i))
	}
	tr := Build(ds, slices.Clone(members), 1)
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	b := newBrute(ds, members)
	checkQueries(t, name, tr, b, queries, radii)
	boundary := checkSelfCounts(t, name, tr, b, radii)
	checkLowerKey(t, name, tr, ds, members, key)
	return boundary
}

// TestTreeMatchesBrute checks every query kind against brute force on
// random, duplicate-grid and float32 fixtures, for whole and subset
// trees at sizes around the leaf boundary, one-leaf trees included. On
// the integer grids, radii 1 and 2 are exact pair distances, so
// SelfCounts meets the strict boundary. The 2-d and 3-d fixtures
// exercise only the distance kernel's tail; the 4-d ones a single
// 4-lane chunk, and the 8-d one two chunks with an exit between them.
func TestTreeMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	radii := []float64{0, 0.5, 1, math.Sqrt2, 2, 3.7}
	boundary := 0
	for _, n := range []int{0, 1, 15, 16, 17, 33, 600} {
		fixtures := map[string]*geom.Dataset{}
		for _, whole := range []bool{true, false} {
			size := n
			if !whole {
				size = 2*n + 3
			} else if n == 0 {
				continue // a dataset is never empty
			}
			random := geom.MustFromRows(randPts(rng, size, 3, 5))
			grid := geom.MustFromRows(dupPts(rng, size, 2))
			random4 := geom.MustFromRows(randPts(rng, size, 4, 5))
			random8 := geom.MustFromRows(randPts(rng, size, 8, 5))
			fixtures[fmt.Sprintf("random whole=%v", whole)] = random
			fixtures[fmt.Sprintf("grid whole=%v", whole)] = grid
			fixtures[fmt.Sprintf("f32 random whole=%v", whole)] = random.ToFloat32()
			fixtures[fmt.Sprintf("f32 grid whole=%v", whole)] = grid.ToFloat32()
			fixtures[fmt.Sprintf("4-d random whole=%v", whole)] = random4
			fixtures[fmt.Sprintf("4-d f32 random whole=%v", whole)] = random4.ToFloat32()
			fixtures[fmt.Sprintf("4-d grid whole=%v", whole)] = geom.MustFromRows(dupPts(rng, size, 4))
			fixtures[fmt.Sprintf("8-d random whole=%v", whole)] = random8
			fixtures[fmt.Sprintf("8-d f32 random whole=%v", whole)] = random8.ToFloat32()
		}
		for name, ds := range fixtures {
			members := allIDs(ds.N)
			if ds.N != n {
				rng.Shuffle(len(members), func(a, b int) { members[a], members[b] = members[b], members[a] })
				members = members[:n]
			}
			extra := [][]float64{make([]float64, ds.Dim), randPts(rng, 1, ds.Dim, 5)[0]}
			boundary += checkAll(t, fmt.Sprintf("n=%d %s", n, name), ds, members, extra, radii, permKey(rng, ds.N))
		}
	}
	if boundary == 0 {
		t.Fatal("no member pair sat exactly on a radius; the strict boundary went untested")
	}
}

// FuzzKDTreeMatchesBrute checks every query kind, SelfCounts at 1-3
// workers included, against brute force on up to 300 points in 1-9
// dimensions — tail-only rows, one and two
// 4-lane chunks, and chunks plus a tail — with coordinates quantized to
// sixteen values so exact distance ties are common. mode picks the
// precision (bit 0), a whole or subset tree (bit 1), and which points
// the subset keeps.
func FuzzKDTreeMatchesBrute(f *testing.F) {
	f.Add(uint8(2), uint8(0), []byte("\x00\x01\x01\x00\x01\x01\x00\x00\x02\x02\x07\x07\x06\x07"))
	f.Add(uint8(1), uint8(3), []byte{3, 3, 3, 4, 4, 5, 0, 7, 9, 9, 9, 9, 9, 9, 9, 9, 9, 1})
	f.Add(uint8(3), uint8(6), []byte("a static bucketed kd-tree with ties everywhere"))
	f.Fuzz(func(t *testing.T, dim, mode uint8, coords []byte) {
		d := 1 + int(dim%9)
		n := min(len(coords)/d, 300)
		if n == 0 {
			return
		}
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = float64(coords[i*d+j]%16) / 3
			}
		}
		ds := geom.MustFromRows(rows)
		if mode&1 != 0 {
			ds = ds.ToFloat32()
		}
		members := allIDs(n)
		if mode&2 != 0 {
			members = members[:0]
			for i := range n {
				if (i+int(mode>>2))%3 != 0 {
					members = append(members, int32(i))
				}
			}
		}
		// Keys by coordinate byte sum, ties broken by id: distinct, but
		// correlated with position like a density rank.
		key := allIDs(n)
		sum := func(i int32) int { return int(coords[int(i)*d]) + int(coords[int(i)*d+d-1]) }
		slices.SortStableFunc(key, func(a, b int32) int { return sum(a) - sum(b) })
		rank := make([]int32, n)
		for r, i := range key {
			rank[i] = int32(r)
		}
		extra := [][]float64{make([]float64, d)}
		radii := []float64{0, 1.0 / 3, 1, 2, float64(mode%16) / 3}
		// The first and last points' distance, when it squares back
		// exactly: a pair on the strict boundary.
		if r := math.Sqrt(geom.SqDistIdx(ds, 0, int32(n-1))); r*r == geom.SqDistIdx(ds, 0, int32(n-1)) {
			radii = append(radii, r)
		}
		checkAll(t, fmt.Sprintf("d=%d mode=%d", d, mode), ds, members, extra, radii, rank)
	})
}
