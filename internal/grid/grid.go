// Package grid implements the on-line built uniform grid of the paper's
// approximation algorithms (§4.1, §5).
//
// A grid with side length L partitions R^d into axis-aligned cells of edge
// L; only non-empty cells are materialized ("no empty-cell is created").
// Approx-DPC uses L = d_cut/sqrt(d), so any two points in one cell are
// within d_cut of each other; S-Approx-DPC uses L = eps*d_cut/sqrt(d).
//
// Each cell carries the bookkeeping fields the algorithms maintain: the
// member points P(c), the maximum-density member p*(c), the minimum member
// density, and the neighbor-cell id set N(c). The grid itself only manages
// membership and coordinates; the clustering algorithms fill the rest
// after their local-density phase. Approx-DPC sets p*(c) and the minimum;
// S-Approx-DPC sets N(c).
//
// The build is flat: every point's cell coordinates are computed once,
// cells are found through an open-addressing table of cell ids keyed by
// a hash of the coordinates, and the members of all cells share one
// slab, in dataset order. Cells are created on first touch in dataset
// order, so cell ids, member orders and neighbor enumeration orders are
// deterministic.
package grid

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/geom"
)

// Cell is one non-empty grid cell.
type Cell struct {
	// Coords are the integer cell coordinates (floor(p/side) per dim).
	Coords []int64
	// Points are dataset indices of the members P(c), ascending.
	Points []int32
	// Best is p*(c), the member with maximum local density; -1 until the
	// owning algorithm sets it.
	Best int32
	// MinRho is min_{P(c)} rho; meaningless until set by the algorithm.
	MinRho float64
	// Neighbors is N(c), which S-Approx-DPC fills: ids of the cells
	// other than c that hold a point within d_cut of c's picked point,
	// ascending.
	Neighbors []int32
}

// Grid is a sparse uniform grid over a dataset.
type Grid struct {
	Side  float64
	Dim   int
	Cells []Cell
	// PointCell maps every dataset index to the id of its cell.
	PointCell []int32
	// coords holds the cell coordinates, cell c's at [c*Dim, (c+1)*Dim);
	// every Cells[c].Coords is a capped view of it. find reads it during
	// the build, so it grows as cells are created.
	coords []int64
	// table maps coordinates to cell ids by linear probing from
	// hashCoords; -1 marks an empty slot. Its length is a power of two
	// above twice the point count, so it always has an empty slot.
	table []int32
	// coordLo/coordHi bound the occupied cell coordinates per dimension
	// (valid when at least one cell exists); MaxRing uses them.
	coordLo, coordHi []int64
}

// Build maps every point of the flat dataset into a grid with the given
// cell side length, creating cells on first touch in dataset order (so
// cell ids and member orders are deterministic).
func Build(ds *geom.Dataset, side float64) *Grid {
	if side <= 0 {
		panic("grid: non-positive side length")
	}
	n, d := ds.N, ds.Dim
	if n == 0 {
		d = 0
	}
	g := &Grid{
		Side:      side,
		Dim:       d,
		PointCell: make([]int32, n),
		table:     make([]int32, 1<<bits.Len(uint(2*n))), // at most half full
		coordLo:   make([]int64, d),
		coordHi:   make([]int64, d),
	}
	pc := make([]int64, n*d)
	if ds.Coords32 != nil {
		for k, x := range ds.Coords32[:n*d] {
			pc[k] = int64(math.Floor(float64(x) / side))
		}
	} else {
		for k, x := range ds.Coords[:n*d] {
			pc[k] = int64(math.Floor(x / side))
		}
	}
	for s := range g.table {
		g.table[s] = -1
	}
	// The cell coordinates are compacted into pc in place: cell c's are
	// the row of its first member i, and c <= i, so each row moves down
	// over rows already read, never over one still to read.
	size := make([]int32, n) // size[c] is the member count of cell c
	nc := 0
	for i := 0; i < n; i++ {
		row := pc[i*d : (i+1)*d]
		slot, id := g.find(row)
		if id < 0 {
			id = int32(nc)
			nc++
			g.table[slot] = id
			copy(pc[int(id)*d:], row)
			g.coords = pc[:nc*d]
		}
		size[id]++
		g.PointCell[i] = id
	}

	members := make([]int32, n)
	g.Cells = make([]Cell, nc)
	for c := range g.Cells {
		g.Cells[c] = Cell{Coords: g.coords[c*d : (c+1)*d : (c+1)*d], Points: members[:0:size[c]], Best: -1}
		members = members[size[c]:]
	}
	for i, c := range g.PointCell {
		cell := &g.Cells[c]
		cell.Points = append(cell.Points, int32(i))
	}
	if len(g.Cells) > 0 {
		copy(g.coordLo, g.Cells[0].Coords)
		copy(g.coordHi, g.Cells[0].Coords)
	}
	for _, cell := range g.Cells {
		for j, v := range cell.Coords {
			g.coordLo[j] = min(g.coordLo[j], v)
			g.coordHi[j] = max(g.coordHi[j], v)
		}
	}
	return g
}

// hashCoords mixes a coordinate row into a table hash.
func hashCoords(coords []int64) uint64 {
	h := uint64(len(coords))
	for _, v := range coords {
		h = (h ^ uint64(v)) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	h *= 0xbf58476d1ce4e5b9
	return h ^ h>>31
}

// find returns the table slot holding the cell with the given
// coordinates and its id, or the empty slot where that cell belongs
// and -1. Lookups are safe for concurrent use once Build returns.
func (g *Grid) find(coords []int64) (int, int32) {
	mask := len(g.table) - 1
	for s := int(hashCoords(coords)) & mask; ; s = (s + 1) & mask {
		id := g.table[s]
		if id < 0 || slices.Equal(g.coords[int(id)*g.Dim:int(id+1)*g.Dim], coords) {
			return s, id
		}
	}
}

// SideForDCut returns the Approx-DPC cell edge d_cut/sqrt(d), which makes
// the cell diagonal exactly d_cut so that any two points sharing a cell are
// within d_cut of each other.
func SideForDCut(dcut float64, d int) float64 {
	return dcut / math.Sqrt(float64(d))
}

// NumCells returns the number of non-empty cells.
func (g *Grid) NumCells() int { return len(g.Cells) }

// ForEachNeighborCell invokes fn with the id of every existing cell whose
// integer coordinates differ from cell c's by at most `reach` in every
// dimension, excluding c itself. It is used by tests and by algorithms
// that enumerate the O(1)-size candidate neighborhood for fixed d.
func (g *Grid) ForEachNeighborCell(c int32, reach int64, fn func(id int32)) {
	base := g.Cells[c].Coords
	// When the coordinate neighborhood (2*reach+1)^d outnumbers the
	// occupied cells (common in high dimensions), scan the occupied cells
	// instead of enumerating coordinates.
	if vol, ok := hypercubeVolume(2*reach+1, g.Dim); !ok || vol > int64(len(g.Cells)) {
		for id := range g.Cells {
			if int32(id) == c {
				continue
			}
			if chebyshev(g.Cells[id].Coords, base) <= reach {
				fn(int32(id))
			}
		}
		return
	}
	cur := slices.Clone(base)
	var rec func(dim int, moved bool)
	rec = func(dim int, moved bool) {
		if dim == g.Dim {
			if !moved {
				return
			}
			if _, id := g.find(cur); id >= 0 {
				fn(id)
			}
			return
		}
		for dv := -reach; dv <= reach; dv++ {
			cur[dim] = base[dim] + dv
			rec(dim+1, moved || dv != 0)
		}
		cur[dim] = base[dim]
	}
	rec(0, false)
}
