package grid

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/geom"
)

func TestBuildMembership(t *testing.T) {
	pts := [][]float64{
		{0.5, 0.5},   // cell (0,0)
		{0.9, 0.1},   // cell (0,0)
		{1.5, 0.5},   // cell (1,0)
		{-0.5, -0.5}, // cell (-1,-1)
	}
	g := Build(geom.MustFromRows(pts), 1.0)
	if g.NumCells() != 3 {
		t.Fatalf("NumCells = %d, want 3", g.NumCells())
	}
	if g.PointCell[0] != g.PointCell[1] {
		t.Error("points 0 and 1 should share a cell")
	}
	if g.PointCell[0] == g.PointCell[2] || g.PointCell[0] == g.PointCell[3] {
		t.Error("distinct cells expected")
	}
	// Every point must be in the member list of its cell.
	for i := range pts {
		found := false
		for _, m := range g.Cells[g.PointCell[i]].Points {
			if m == int32(i) {
				found = true
			}
		}
		if !found {
			t.Errorf("point %d missing from its cell member list", i)
		}
	}
}

// lookup returns the id of the cell with the given coordinates, or -1
// when that cell is empty.
func lookup(g *Grid, coords []int64) int32 {
	_, id := g.find(coords)
	return id
}

func TestCellID(t *testing.T) {
	pts := [][]float64{{0.5, 0.5}, {0.2, 0.7}, {5, 5}, {-0.5, 0.5}}
	g := Build(geom.MustFromRows(pts), 1.0)
	if g.PointCell[1] != g.PointCell[0] {
		t.Errorf("co-resident point in cell %d, want %d", g.PointCell[1], g.PointCell[0])
	}
	for i, want := range [][]int64{{0, 0}, {0, 0}, {5, 5}, {-1, 0}} {
		if got := g.Cells[g.PointCell[i]].Coords; !slices.Equal(got, want) {
			t.Errorf("point %d: cell coords %v, want %v", i, got, want)
		}
		if _, id := g.find(want); id != g.PointCell[i] {
			t.Errorf("lookup(%v) = %d, want %d", want, id, g.PointCell[i])
		}
	}
	if _, id := g.find([]int64{3, 3}); id != -1 {
		t.Errorf("lookup of an empty cell = %d, want -1", id)
	}
}

func TestCellDiagonalProperty(t *testing.T) {
	// With side = d_cut/sqrt(d), any two points in the same cell are within
	// d_cut of each other. This is the correctness basis of Approx-DPC's
	// in-cell dependent-point rule.
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{1, 2, 3, 8} {
		dcut := 10.0
		side := SideForDCut(dcut, d)
		pts := make([][]float64, 500)
		for i := range pts {
			p := make([]float64, d)
			for j := range p {
				p[j] = rng.Float64()*100 - 50
			}
			pts[i] = p
		}
		g := Build(geom.MustFromRows(pts), side)
		for _, c := range g.Cells {
			for _, a := range c.Points {
				for _, b := range c.Points {
					if dist := geom.Dist(pts[a], pts[b]); dist > dcut+1e-9 {
						t.Fatalf("d=%d: co-cell points at distance %v > d_cut %v", d, dist, dcut)
					}
				}
			}
		}
	}
}

func TestNegativeCoords(t *testing.T) {
	pts := [][]float64{{-0.1, -0.1}, {-0.9, -0.9}, {0.1, 0.1}}
	g := Build(geom.MustFromRows(pts), 1.0)
	if g.PointCell[0] != g.PointCell[1] {
		t.Error("both negative points belong to cell (-1,-1)")
	}
	if g.PointCell[0] == g.PointCell[2] {
		t.Error("cells (-1,-1) and (0,0) must differ")
	}
}

func TestForEachNeighborCell(t *testing.T) {
	// 3x3 block of occupied cells; the center cell has 8 neighbors at
	// reach 1 and itself is excluded.
	var pts [][]float64
	for x := 0; x < 3; x++ {
		for y := 0; y < 3; y++ {
			pts = append(pts, []float64{float64(x) + 0.5, float64(y) + 0.5})
		}
	}
	g := Build(geom.MustFromRows(pts), 1.0)
	center := lookup(g, []int64{1, 1})
	if center < 0 {
		t.Fatal("center cell missing")
	}
	seen := map[int32]bool{}
	g.ForEachNeighborCell(center, 1, func(id int32) {
		if seen[id] {
			t.Fatalf("neighbor %d visited twice", id)
		}
		seen[id] = true
	})
	if len(seen) != 8 {
		t.Errorf("neighbors = %d, want 8", len(seen))
	}
	if seen[center] {
		t.Error("center must be excluded")
	}
	// Corner cell has only 3 neighbors.
	corner := lookup(g, []int64{0, 0})
	count := 0
	g.ForEachNeighborCell(corner, 1, func(int32) { count++ })
	if count != 3 {
		t.Errorf("corner neighbors = %d, want 3", count)
	}
}

func TestDeterministicCellOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := make([][]float64, 300)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 20, rng.Float64() * 20}
	}
	a := Build(geom.MustFromRows(pts), 1.5)
	b := Build(geom.MustFromRows(pts), 1.5)
	if a.NumCells() != b.NumCells() {
		t.Fatal("cell counts differ between identical builds")
	}
	for i := range a.Cells {
		if len(a.Cells[i].Points) != len(b.Cells[i].Points) {
			t.Fatalf("cell %d member counts differ", i)
		}
		for j := range a.Cells[i].Points {
			if a.Cells[i].Points[j] != b.Cells[i].Points[j] {
				t.Fatalf("cell %d member order differs", i)
			}
		}
	}
}

func TestEmptyDataset(t *testing.T) {
	g := Build(&geom.Dataset{}, 1.0)
	if g.NumCells() != 0 {
		t.Errorf("NumCells = %d", g.NumCells())
	}
}

func TestAllPointsAssigned(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([][]float64, 1000)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.NormFloat64() * 10}
	}
	g := Build(geom.MustFromRows(pts), 2.0)
	total := 0
	for _, c := range g.Cells {
		total += len(c.Points)
	}
	if total != len(pts) {
		t.Errorf("sum of cell members = %d, want %d", total, len(pts))
	}
}

// refGrid is a map-based grid build: the cell of every point, cells
// numbered on first touch in dataset order, members in dataset order.
type refGrid struct {
	coords    [][]int64
	members   [][]int32
	pointCell []int32
}

func buildRef(ds *geom.Dataset, side float64) refGrid {
	var r refGrid
	index := map[string]int32{}
	for i := 0; i < ds.N; i++ {
		p := ds.At(i)
		coords := make([]int64, len(p))
		for j, x := range p {
			coords[j] = int64(math.Floor(x / side))
		}
		key := fmt.Sprint(coords)
		id, ok := index[key]
		if !ok {
			id = int32(len(r.coords))
			index[key] = id
			r.coords = append(r.coords, coords)
			r.members = append(r.members, nil)
		}
		r.members[id] = append(r.members[id], int32(i))
		r.pointCell = append(r.pointCell, id)
	}
	return r
}

// TestBuildMatchesReference checks Build against buildRef: cell ids,
// coordinates, members and PointCell, table lookups of present and
// absent cells, MaxRing against the farthest occupied cell, and
// neighbor and ring enumeration against a scan of every cell.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	uniform := func(n, d int, lo, hi float64) *geom.Dataset {
		coords := make([]float64, n*d)
		for k := range coords {
			coords[k] = lo + rng.Float64()*(hi-lo)
		}
		return geom.NewDataset(coords, d)
	}
	type fixture struct {
		ds   *geom.Dataset
		side float64
	}
	fixtures := map[string]fixture{
		"empty":     {&geom.Dataset{}, 1},
		"one":       {geom.MustFromRows([][]float64{{-3.5, 7}}), 1},
		"negative":  {uniform(400, 2, -50, 50), 1.5},
		"large":     {uniform(300, 3, -1e15, 1e15), 1e12},
		"large f32": {uniform(300, 3, -1e15, 1e15).ToFloat32(), 1e12},
		"near 1e15": {uniform(300, 2, 1e15, 1e15+40), 1},
	}
	var dups [][]float64
	for i := 0; i < 200; i++ {
		p := []float64{float64(rng.Intn(5)), float64(rng.Intn(5)) - 2}
		dups = append(dups, p, p)
	}
	fixtures["duplicates"] = fixture{geom.MustFromRows(dups), 0.7}
	for d := 1; d <= 8; d++ {
		fixtures[fmt.Sprintf("%d-d", d)] = fixture{uniform(300, d, -10, 10), 1}
		fixtures[fmt.Sprintf("%d-d f32", d)] = fixture{uniform(300, d, -10, 10).ToFloat32(), 1.3}
	}
	// A lattice with one point per cell: thousands of cells, so some
	// share a home slot and linear probing must step past them.
	var lattice []float64
	for x := -40; x < 40; x++ {
		for y := -30; y < 30; y++ {
			lattice = append(lattice, float64(x)+0.5, float64(y)+0.25)
		}
	}
	fixtures["lattice"] = fixture{geom.NewDataset(lattice, 2), 1}

	for name, f := range fixtures {
		g := Build(f.ds, f.side)
		ref := buildRef(f.ds, f.side)
		if g.NumCells() != len(ref.coords) {
			t.Fatalf("%s: %d cells, want %d", name, g.NumCells(), len(ref.coords))
		}
		if !slices.Equal(g.PointCell, ref.pointCell) {
			t.Fatalf("%s: PointCell differs from the reference", name)
		}
		probed := 0
		for c := range g.Cells {
			cell := &g.Cells[c]
			if !slices.Equal(cell.Coords, ref.coords[c]) || !slices.Equal(cell.Points, ref.members[c]) {
				t.Fatalf("%s: cell %d is %v %v, want %v %v", name, c, cell.Coords, cell.Points, ref.coords[c], ref.members[c])
			}
			if cell.Best != -1 {
				t.Fatalf("%s: cell %d has Best %d before any algorithm set it", name, c, cell.Best)
			}
			slot, id := g.find(cell.Coords)
			if id != int32(c) {
				t.Fatalf("%s: lookup of cell %d's coordinates = %d", name, c, id)
			}
			if slot != int(hashCoords(cell.Coords))&(len(g.table)-1) {
				probed++
			}
			absent := slices.Clone(cell.Coords)
			absent[0] += 1 << 40
			if _, id := g.find(absent); id != -1 {
				t.Fatalf("%s: lookup of an empty cell = %d", name, id)
			}
		}
		if name == "lattice" && probed == 0 {
			t.Fatalf("lattice: no cell sits away from its home slot, so probing went untested")
		}

		for k := 0; k < 25 && k < g.NumCells(); k++ {
			c := int32(rng.Intn(g.NumCells()))
			var farthest int64
			for _, o := range ref.coords {
				farthest = max(farthest, chebyshev(o, ref.coords[c]))
			}
			if got := g.MaxRing(c); got != farthest {
				t.Fatalf("%s: MaxRing(%d) = %d, want %d", name, c, got, farthest)
			}
			for reach := int64(1); reach <= 3; reach++ {
				var want, wantRing []int32
				for o := range ref.coords {
					switch dist := chebyshev(ref.coords[o], ref.coords[c]); {
					case int32(o) == c:
					case dist == reach:
						wantRing = append(wantRing, int32(o))
						want = append(want, int32(o))
					case dist < reach:
						want = append(want, int32(o))
					}
				}
				var got, gotRing []int32
				g.ForEachNeighborCell(c, reach, func(id int32) { got = append(got, id) })
				g.ForEachNeighborRing(c, reach, func(id int32) { gotRing = append(gotRing, id) })
				slices.Sort(got)
				slices.Sort(gotRing)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: cell %d reach %d: neighbors %v, want %v", name, c, reach, got, want)
				}
				if !slices.Equal(gotRing, wantRing) {
					t.Fatalf("%s: cell %d ring %d: %v, want %v", name, c, reach, gotRing, wantRing)
				}
			}
		}
	}
}

// BenchmarkGridBuild builds Approx-DPC's grid (side d_cut/sqrt(d)) over
// the 20,000-point PAMAP2 stand-in.
func BenchmarkGridBuild(b *testing.B) {
	d := data.PAMAP2Like(20000, 1)
	side := SideForDCut(d.DCut, d.Points.Dim)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Build(d.Points, side)
	}
}
