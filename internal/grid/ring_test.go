package grid

import (
	"repro/internal/geom"

	"math/rand"
	"testing"
)

// denseGrid builds a fully occupied coordinate block [0,side)^d scaled so
// each integer cell holds one point.
func denseGrid(t *testing.T, dims []int) *Grid {
	t.Helper()
	var pts [][]float64
	var rec func(prefix []float64, dim int)
	rec = func(prefix []float64, dim int) {
		if dim == len(dims) {
			p := make([]float64, len(prefix))
			copy(p, prefix)
			pts = append(pts, p)
			return
		}
		for v := 0; v < dims[dim]; v++ {
			rec(append(prefix, float64(v)+0.5), dim+1)
		}
	}
	rec(nil, 0)
	return Build(geom.MustFromRows(pts), 1.0)
}

func TestRingEnumerationExactDistance(t *testing.T) {
	g := denseGrid(t, []int{9, 9})
	center := lookup(g, []int64{4, 4})
	for ring := int64(1); ring <= 4; ring++ {
		seen := map[int32]bool{}
		g.ForEachNeighborRing(center, ring, func(id int32) {
			if seen[id] {
				t.Fatalf("ring %d: cell %d visited twice", ring, id)
			}
			seen[id] = true
			// Chebyshev distance must be exactly ring.
			c := g.Cells[id].Coords
			cheb := int64(0)
			for j, v := range c {
				dv := v - g.Cells[center].Coords[j]
				if dv < 0 {
					dv = -dv
				}
				if dv > cheb {
					cheb = dv
				}
			}
			if cheb != ring {
				t.Fatalf("ring %d returned cell at Chebyshev %d", ring, cheb)
			}
		})
		want := (2*ring+1)*(2*ring+1) - (2*ring-1)*(2*ring-1)
		if int64(len(seen)) != want {
			t.Fatalf("ring %d: %d cells, want %d", ring, len(seen), want)
		}
	}
}

func TestRingEnumeration3D(t *testing.T) {
	g := denseGrid(t, []int{5, 5, 5})
	center := lookup(g, []int64{2, 2, 2})
	count := 0
	g.ForEachNeighborRing(center, 1, func(int32) { count++ })
	if count != 26 { // 3^3 - 1
		t.Errorf("3-d ring 1 has %d cells, want 26", count)
	}
	count = 0
	g.ForEachNeighborRing(center, 2, func(int32) { count++ })
	if count != 5*5*5-3*3*3 {
		t.Errorf("3-d ring 2 has %d cells, want %d", count, 5*5*5-3*3*3)
	}
}

func TestRingsPartitionNeighborhood(t *testing.T) {
	// Union of rings 1..r == ForEachNeighborCell with reach r.
	g := denseGrid(t, []int{7, 7})
	center := lookup(g, []int64{3, 3})
	union := map[int32]bool{}
	for ring := int64(1); ring <= 3; ring++ {
		g.ForEachNeighborRing(center, ring, func(id int32) {
			if union[id] {
				t.Fatalf("cell %d in two rings", id)
			}
			union[id] = true
		})
	}
	reach := map[int32]bool{}
	g.ForEachNeighborCell(center, 3, func(id int32) { reach[id] = true })
	if len(union) != len(reach) {
		t.Fatalf("rings cover %d cells, reach covers %d", len(union), len(reach))
	}
	for id := range reach {
		if !union[id] {
			t.Fatalf("cell %d missing from ring union", id)
		}
	}
}

func TestRingSparseGrid(t *testing.T) {
	// Only a few occupied cells: rings must return exactly the occupied
	// ones at the right distance.
	pts := [][]float64{{0.5, 0.5}, {3.5, 0.5}, {0.5, 3.5}}
	g := Build(geom.MustFromRows(pts), 1.0)
	origin := lookup(g, []int64{0, 0})
	count := 0
	g.ForEachNeighborRing(origin, 3, func(int32) { count++ })
	if count != 2 {
		t.Errorf("sparse ring 3: %d cells, want 2", count)
	}
	count = 0
	g.ForEachNeighborRing(origin, 2, func(int32) { count++ })
	if count != 0 {
		t.Errorf("sparse ring 2: %d cells, want 0", count)
	}
}

func TestMaxRing(t *testing.T) {
	pts := [][]float64{{0.5, 0.5}, {10.5, 0.5}, {0.5, 6.5}}
	g := Build(geom.MustFromRows(pts), 1.0)
	origin := lookup(g, []int64{0, 0})
	if got := g.MaxRing(origin); got != 10 {
		t.Errorf("MaxRing = %d, want 10", got)
	}
	far := lookup(g, []int64{10, 0})
	if got := g.MaxRing(far); got != 10 {
		t.Errorf("MaxRing from far corner = %d, want 10", got)
	}
}

func TestRingZeroAndConcurrent(t *testing.T) {
	g := denseGrid(t, []int{4, 4})
	c := lookup(g, []int64{1, 1})
	called := false
	g.ForEachNeighborRing(c, 0, func(int32) { called = true })
	if called {
		t.Error("ring 0 must be empty")
	}
	// Concurrent ring walks and lookups must not interfere.
	done := make(chan bool)
	for w := 0; w < 8; w++ {
		go func() {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 200; i++ {
				cell := int32(rng.Intn(g.NumCells()))
				g.ForEachNeighborRing(cell, 1+int64(rng.Intn(3)), func(int32) {})
				lookup(g, []int64{int64(rng.Intn(6)) - 1, int64(rng.Intn(6)) - 1})
			}
			done <- true
		}()
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}
