package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/kdtree"
)

// approxCellFixture mixes every kind of Approx-DPC cell at d_cut 2: a
// lattice of spacing d_cut (one member per cell, with neighbors at
// exactly d_cut, which do not count, so each is alone within d_cut),
// stacks of identical points, a dense blob (cells of several distinct
// members), and a duplicate-heavy integer grid, whose points also lie
// at exactly d_cut from points they do have within d_cut.
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

// TestApproxCellSummariesMatchBrute checks Approx-DPC's density phase and
// neighbor-cell rule against brute-force definitions: each member's rho
// (the d_cut count plus jitter), p*(c) (the first member with the
// strictly largest rho), the minimum member density, and the cell the
// rule picks for p*(c): the lowest c' != c holding a point strictly
// within d_cut of p*(c) whose minimum density exceeds rho(p*(c)), or
// none.
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
		g := grid.Build(ds, grid.SideForDCut(dcut, ds.Dim))
		wantBest := make([]int32, len(g.Cells))
		wantMin := make([]float64, len(g.Cells))
		for c, cell := range g.Cells {
			wantBest[c], wantMin[c] = cell.Points[0], want[cell.Points[0]]
			for _, m := range cell.Points {
				if want[m] > want[wantBest[c]] {
					wantBest[c] = m
				}
				wantMin[c] = min(wantMin[c], want[m])
			}
		}
		// wantRule[c] is the rule's cell for p*(c), or -1; alone[c] says
		// that nothing but p*(c) lies within d_cut of it.
		wantRule := make([]int32, len(g.Cells))
		alone := make([]bool, len(g.Cells))
		for c, b := range wantBest {
			wantRule[c], alone[c] = -1, true
			for x := int32(0); x < int32(ds.N); x++ {
				if x == b || geom.SqDistIdx(ds, b, x) >= sq {
					continue
				}
				alone[c] = false
				xc := g.PointCell[x]
				if xc != int32(c) && wantMin[xc] > want[b] && (wantRule[c] < 0 || xc < wantRule[c]) {
					wantRule[c] = xc
				}
			}
		}

		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%s, workers=%d", ds.Precision(), workers)
			tree := kdtree.BuildAllWorkers(ds, workers)
			g := grid.Build(ds, grid.SideForDCut(dcut, ds.Dim))
			rho := make([]float64, ds.N)
			counts := selfJoinRho(tree, dcut, rho, workers)
			cellSummaries(g, rho)
			row := make([]float64, ds.Dim)
			var picked, isolated, none int
			for c := range g.Cells {
				cell := &g.Cells[c]
				for _, m := range cell.Points {
					if rho[m] != want[m] {
						t.Fatalf("%s: cell %d member %d: rho %v, want %v", name, c, m, rho[m], want[m])
					}
				}
				if cell.Best != wantBest[c] || cell.MinRho != wantMin[c] {
					t.Fatalf("%s: cell %d: Best %d MinRho %v, want %d %v", name, c, cell.Best, cell.MinRho, wantBest[c], wantMin[c])
				}
				if got := ruleCell(ds, tree, g, rho, counts, cell.Best, dcut, row); got != wantRule[c] {
					t.Fatalf("%s: cell %d: rule picks cell %d, want %d", name, c, got, wantRule[c])
				}
				switch {
				case wantRule[c] >= 0:
					picked++
				case alone[c]:
					isolated++
				default:
					none++
				}
			}
			if picked == 0 || isolated == 0 || none == 0 {
				t.Fatalf("%s: %d cells pick a neighbor cell, %d bests are alone within d_cut and %d others pick none; the fixture must hold each kind", name, picked, isolated, none)
			}
		}
	}
}
