package grid

import "slices"

// ForEachNeighborRing invokes fn with the id of every existing cell at
// Chebyshev distance exactly `ring` from cell c (ring >= 1). Each surface
// cell is visited once: for each dimension j, the j-th coordinate is
// pinned to +-ring while dimensions before j range over (-ring, ring) and
// dimensions after j range over [-ring, ring], which tiles the hypercube
// surface without overlap. DPCG's dependent-point search expands these
// rings outward.
func (g *Grid) ForEachNeighborRing(c int32, ring int64, fn func(id int32)) {
	if ring < 1 {
		return
	}
	base := g.Cells[c].Coords
	// Surface size (2r+1)^d - (2r-1)^d can dwarf the occupied cell count
	// in high dimensions; scan occupied cells in that regime.
	if vol, ok := hypercubeVolume(2*ring+1, g.Dim); !ok || vol > int64(len(g.Cells)) {
		for id := range g.Cells {
			if int32(id) != c && chebyshev(g.Cells[id].Coords, base) == ring {
				fn(int32(id))
			}
		}
		return
	}
	cur := slices.Clone(base)
	for pin := 0; pin < g.Dim; pin++ {
		for _, side := range []int64{-ring, ring} {
			cur[pin] = base[pin] + side
			g.ringRec(cur, base, pin, 0, ring, fn)
			cur[pin] = base[pin]
		}
	}
}

// ringRec fills the non-pinned dimensions: dims < pin range in
// (-ring, ring), dims > pin range in [-ring, ring].
func (g *Grid) ringRec(cur, base []int64, pin, dim int, ring int64, fn func(id int32)) {
	if dim == g.Dim {
		if _, id := g.find(cur); id >= 0 {
			fn(id)
		}
		return
	}
	if dim == pin {
		g.ringRec(cur, base, pin, dim+1, ring, fn)
		return
	}
	lo, hi := -ring, ring
	if dim < pin {
		lo, hi = -ring+1, ring-1
	}
	for dv := lo; dv <= hi; dv++ {
		cur[dim] = base[dim] + dv
		g.ringRec(cur, base, pin, dim+1, ring, fn)
	}
	cur[dim] = base[dim]
}

// hypercubeVolume returns side^dim, with ok=false on overflow past 2^40.
func hypercubeVolume(side int64, dim int) (int64, bool) {
	v := int64(1)
	for i := 0; i < dim; i++ {
		v *= side
		if v > 1<<40 {
			return 0, false
		}
	}
	return v, true
}

// chebyshev returns the L-infinity distance between two coordinate vectors.
func chebyshev(a, b []int64) int64 {
	var m int64
	for j := range a {
		d := a[j] - b[j]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// MaxRing returns the largest Chebyshev distance from cell c to any
// occupied cell — the outermost ring a ring-expanding search ever needs.
func (g *Grid) MaxRing(c int32) int64 {
	base := g.Cells[c].Coords
	var max int64
	for j := 0; j < g.Dim; j++ {
		if v := base[j] - g.coordLo[j]; v > max {
			max = v
		}
		if v := g.coordHi[j] - base[j]; v > max {
			max = v
		}
	}
	return max
}
