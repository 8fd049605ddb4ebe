package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/kdtree"
)

// approxCellFixture mixes every kind of Approx-DPC cell at d_cut 2: a
// lattice of spacing d_cut (one member per cell, with neighbors at
// exactly d_cut, which do not count), stacks of identical points (zero
// spread, several members), a dense blob (cells of several distinct
// members), and a duplicate-heavy integer grid.
func approxCellFixture(rng *rand.Rand) *geom.Dataset {
	var rows [][]float64
	for x := 0; x < 40; x += 2 {
		for y := 0; y < 20; y += 2 {
			rows = append(rows, []float64{float64(x), float64(y)})
		}
	}
	for k := 0; k < 20; k++ {
		p := []float64{float64(60 + 4*k), 7.25}
		rows = append(rows, p, p, p)
	}
	for k := 0; k < 500; k++ {
		rows = append(rows, []float64{100 + 1.5*rng.NormFloat64(), 100 + 1.5*rng.NormFloat64()})
	}
	for _, p := range dupGrid(rng, 600, 25) {
		rows = append(rows, []float64{p[0] + 200, p[1]})
	}
	return geom.MustFromRows(rows)
}

// TestApproxCellSummariesMatchBrute checks what Approx-DPC's density
// phase leaves in every cell against brute-force definitions: each
// member's rho (the d_cut count plus jitter), p*(c) (the densest
// member), the minimum member density, and N(c) (the cells other than
// c of the points within d_cut of p*(c)), ascending.
func TestApproxCellSummariesMatchBrute(t *testing.T) {
	const dcut = 2.0
	sq := dcut * dcut
	ds64 := approxCellFixture(rand.New(rand.NewSource(5)))
	for _, ds := range []*geom.Dataset{ds64, ds64.ToFloat32()} {
		want := make([]float64, ds.N)
		for i := range want {
			count := 0
			for x := int32(0); x < int32(ds.N); x++ {
				if geom.SqDistIdx(ds, int32(i), x) < sq {
					count++
				}
			}
			want[i] = float64(count) + jitter(i)
		}
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%s, workers=%d", ds.Precision(), workers)
			g := grid.Build(ds, grid.SideForDCut(dcut, ds.Dim))
			rho := make([]float64, ds.N)
			cellDensities(ds, kdtree.BuildAllWorkers(ds, workers), g, rho, Params{DCut: dcut}, workers)
			var single, stacked, spread int
			for c := range g.Cells {
				cell := &g.Cells[c]
				best, minRho := cell.Points[0], want[cell.Points[0]]
				same := true
				for _, m := range cell.Points {
					if rho[m] != want[m] {
						t.Fatalf("%s: cell %d member %d: rho %v, want %v", name, c, m, rho[m], want[m])
					}
					if want[m] > want[best] {
						best = m
					}
					minRho = min(minRho, want[m])
					same = same && geom.SqDistIdx(ds, m, cell.Points[0]) == 0
				}
				switch {
				case len(cell.Points) == 1:
					single++
				case same:
					stacked++
				default:
					spread++
				}
				if cell.Best != best || cell.MinRho != minRho {
					t.Fatalf("%s: cell %d: Best %d MinRho %v, want %d %v", name, c, cell.Best, cell.MinRho, best, minRho)
				}
				var nbrs []int32
				for x := int32(0); x < int32(ds.N); x++ {
					if xc := g.PointCell[x]; xc != int32(c) && geom.SqDistIdx(ds, best, x) < sq {
						nbrs = append(nbrs, xc)
					}
				}
				slices.Sort(nbrs)
				nbrs = slices.Compact(nbrs)
				if !slices.Equal(cell.Neighbors, nbrs) {
					t.Fatalf("%s: cell %d: Neighbors %v, want %v", name, c, cell.Neighbors, nbrs)
				}
			}
			if single == 0 || stacked == 0 || spread == 0 {
				t.Fatalf("%s: %d one-member, %d stacked and %d spread cells; the fixture must hold each kind", name, single, stacked, spread)
			}
		}
	}
}
