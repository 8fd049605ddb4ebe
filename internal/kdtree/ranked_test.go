package kdtree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// bruteLowerKey is the scan NNLowerKey replaces: every member with a
// lower key than q, in ascending key order, strictly-closer wins — so
// the lowest key wins exact ties.
func bruteLowerKey(ds *geom.Dataset, byKey []int32, key []int32, q int32) (int32, float64) {
	best, bestSq := int32(-1), math.Inf(1)
	for _, j := range byKey {
		if key[j] >= key[q] {
			break
		}
		if s := geom.SqDistIdx(ds, q, j); s < bestSq {
			best, bestSq = j, s
		}
	}
	return best, bestSq
}

// checkLowerKey compares NNLowerKey against bruteLowerKey for every
// dataset point as the query, bit for bit.
func checkLowerKey(t *testing.T, name string, tr *Tree, ds *geom.Dataset, members, key []int32) {
	t.Helper()
	byKey := append([]int32(nil), members...)
	sort.Slice(byKey, func(a, b int) bool { return key[byKey[a]] < key[byKey[b]] })
	sub := tr.SubtreeMin(key)
	buf := make([]float64, ds.Dim) // reused across queries, as WalkDependents does
	for q := int32(0); int(q) < ds.N; q++ {
		want, wantSq := bruteLowerKey(ds, byKey, key, q)
		got, gotSq := tr.NNLowerKey(q, key, sub, buf)
		if got != want || math.Float64bits(gotSq) != math.Float64bits(wantSq) {
			t.Fatalf("%s: query %d (key %d): got (%d, %v), want (%d, %v)",
				name, q, key[q], got, gotSq, want, wantSq)
		}
	}
}

// permKey is a random permutation of [0, n) — distinct keys, like the
// density ranks the walk is queried with.
func permKey(rng *rand.Rand, n int) []int32 {
	key := make([]int32, n)
	for i, v := range rng.Perm(n) {
		key[i] = int32(v)
	}
	return key
}

func allIDs(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// dupPts draws n points from a coarse integer grid so many coincide or
// sit at exactly equal distances from a query.
func dupPts(rng *rand.Rand, n, d int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = float64(rng.Intn(5))
		}
		pts[i] = p
	}
	return pts
}

func TestNNLowerKeyMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, d := range []int{1, 2, 3, 7} {
		for _, dups := range []bool{false, true} {
			pts := randPts(rng, 600, d, 100)
			if dups {
				pts = dupPts(rng, 600, d)
			}
			ds64 := geom.MustFromRows(pts)
			for _, ds := range []*geom.Dataset{ds64, ds64.ToFloat32()} {
				name := fmt.Sprintf("d=%d dups=%v %s", d, dups, ds.Precision())
				key := permKey(rng, ds.N)
				checkLowerKey(t, name+" build", BuildAll(ds), ds, allIDs(ds.N), key)

				// A tree over a random half of the points; queries still
				// range over every point.
				members := allIDs(ds.N)
				rng.Shuffle(len(members), func(a, b int) { members[a], members[b] = members[b], members[a] })
				members = members[:ds.N/2]
				half := Build(ds, append([]int32(nil), members...), 1)
				checkLowerKey(t, name+" subset", half, ds, members, key)
			}
		}
	}
}

func TestNNLowerKeyEdges(t *testing.T) {
	ds := geom.MustFromRows([][]float64{{0, 0}, {1, 0}, {1, 0}, {3, 0}})
	tr := BuildAll(ds)
	// Key 0 has nothing below it; an empty tree has nothing at all.
	key := []int32{0, 1, 2, 3}
	if id, sq := tr.NNLowerKey(0, key, tr.SubtreeMin(key), nil); id != -1 || !math.IsInf(sq, 1) {
		t.Errorf("lowest key: got (%d, %v), want (-1, +Inf)", id, sq)
	}
	empty := Build(ds, nil, 1)
	if id, sq := empty.NNLowerKey(3, key, empty.SubtreeMin(key), nil); id != -1 || !math.IsInf(sq, 1) {
		t.Errorf("empty tree: got (%d, %v), want (-1, +Inf)", id, sq)
	}
	// Points 1 and 2 coincide: from point 3 both sit at squared
	// distance 4, and the lower key must win whichever point holds it.
	for _, k := range [][]int32{{0, 1, 2, 3}, {0, 2, 1, 3}} {
		want := int32(1)
		if k[2] < k[1] {
			want = 2
		}
		if id, sq := tr.NNLowerKey(3, k, tr.SubtreeMin(k), nil); id != want || sq != 4 {
			t.Errorf("keys %v: got (%d, %v), want (%d, 4)", k, id, sq, want)
		}
	}
}

// TestLeafLayout pins the layout the walks and SubtreeMin's single
// reverse pass rely on, for whole-dataset and subset trees at both
// precisions: Validate checks that every child node sits after its
// parent, the leaves partition the rows [0, n) in order with at most
// leafSize each, and rows row k equals dataset row ids[k]. It also
// checks SubtreeMin against a direct recursive subtree minimum.
func TestLeafLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	ds64 := geom.MustFromRows(randPts(rng, 500, 3, 10))
	for _, ds := range []*geom.Dataset{ds64, ds64.ToFloat32()} {
		subset := make([]int32, 0, ds.N/3)
		for _, id := range rng.Perm(ds.N)[:ds.N/3] {
			subset = append(subset, int32(id))
		}
		key := permKey(rng, ds.N)
		for name, tr := range map[string]*Tree{"build": BuildAll(ds), "subset": Build(ds, subset, 1)} {
			name = ds.Precision() + " " + name
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sub := tr.SubtreeMin(key)
			var minOf func(cur int32) int32
			minOf = func(cur int32) int32 {
				nd := tr.nodes[cur]
				m := int32(math.MaxInt32)
				if nd.leaf() {
					for _, id := range tr.ids[nd.lo:nd.hi] {
						m = min(m, key[id])
					}
				} else {
					m = min(minOf(nd.l), minOf(nd.r))
				}
				if sub[cur] != m {
					t.Fatalf("%s: SubtreeMin[%d] = %d, want %d", name, cur, sub[cur], m)
				}
				return m
			}
			minOf(0)
		}
	}
}
