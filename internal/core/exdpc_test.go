package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// dupGrid draws n points from the integer grid [0, side)^2, so many
// points coincide and many more sit at exactly equal distances.
func dupGrid(rng *rand.Rand, n, side int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{float64(rng.Intn(side)), float64(rng.Intn(side))}
	}
	return rows
}

// depTies counts the non-peak points of res whose nearest denser point
// is not unique: at least two denser points share the minimum squared
// distance, so only the tie rule decides Dep.
func depTies(ds *geom.Dataset, res *Result) int {
	order := densityOrder(res.Rho, 1)
	ties := 0
	for r := 1; r < len(order); r++ {
		i := order[r]
		best, hits := math.Inf(1), 0
		for _, j := range order[:r] {
			switch s := geom.SqDistIdx(ds, i, j); {
			case s < best:
				best, hits = s, 1
			case s == best:
				hits++
			}
		}
		if hits > 1 {
			ties++
		}
	}
	return ties
}

// TestExDPCMatchesScanOnTies pins Ex-DPC to Scan's dependent-point rule
// on a fixture dominated by exact distance ties: the nearest point of
// higher density, the lower density rank winning a tie. Every field must
// be bit-identical, for one and two workers and for float32 storage.
func TestExDPCMatchesScanOnTies(t *testing.T) {
	ds64 := geom.MustFromRows(dupGrid(rand.New(rand.NewSource(3)), 3000, 30))
	for _, ds := range []*geom.Dataset{ds64, ds64.ToFloat32()} {
		for _, workers := range []int{1, 2} {
			p := Params{DCut: 1.5, RhoMin: 3, DeltaMin: 3, Workers: workers}
			name := fmt.Sprintf("Ex-DPC vs Scan (%s, workers=%d)", ds.Precision(), workers)
			scan, err := Scan{}.ClusterDataset(ds, p)
			if err != nil {
				t.Fatal(err)
			}
			ex, err := ExDPC{}.ClusterDataset(ds, p)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, name, ds.Dim, scan, ex)
			if ds == ds64 && workers == 1 {
				if ties := depTies(ds, scan); ties < ds.N/10 {
					t.Fatalf("fixture has %d tied dependent points, want at least %d", ties, ds.N/10)
				}
			}
		}
	}
}

// checkPPrime compares Approx-DPC against Ex-DPC on the points Approx-DPC
// resolves exactly, its set P': every point whose delta is not the rule
// bound d_cut. Rho must match everywhere, and on P' Dep and the Delta
// bits must be Ex-DPC's, ties included. It returns |P'|.
func checkPPrime(t *testing.T, name string, ap, ex *Result, dcut float64) int {
	t.Helper()
	checked := 0
	for i := range ap.Rho {
		if ap.Rho[i] != ex.Rho[i] {
			t.Fatalf("%s: Rho[%d] %v != Ex-DPC %v", name, i, ap.Rho[i], ex.Rho[i])
		}
		if ap.Delta[i] == dcut {
			continue
		}
		checked++
		if ap.Dep[i] != ex.Dep[i] || math.Float64bits(ap.Delta[i]) != math.Float64bits(ex.Delta[i]) {
			t.Fatalf("%s: P' point %d: (Dep %d, Delta %v), Ex-DPC (%d, %v)",
				name, i, ap.Dep[i], ap.Delta[i], ex.Dep[i], ex.Delta[i])
		}
	}
	return checked
}

// TestApproxPPrimeMatchesExDPC pins Approx-DPC's exact set P' to Ex-DPC's
// dependent-point rule on the tie-heavy fixture of
// TestExDPCMatchesScanOnTies: the nearest denser point, the lower
// density rank winning an exact distance tie.
func TestApproxPPrimeMatchesExDPC(t *testing.T) {
	ds64 := geom.MustFromRows(dupGrid(rand.New(rand.NewSource(3)), 3000, 30))
	for _, ds := range []*geom.Dataset{ds64, ds64.ToFloat32()} {
		for _, workers := range []int{1, 2} {
			p := Params{DCut: 1.5, RhoMin: 3, DeltaMin: 3, Workers: workers}
			name := fmt.Sprintf("Approx-DPC vs Ex-DPC (%s, workers=%d)", ds.Precision(), workers)
			ex, err := ExDPC{}.ClusterDataset(ds, p)
			if err != nil {
				t.Fatal(err)
			}
			ap, err := ApproxDPC{}.ClusterDataset(ds, p)
			if err != nil {
				t.Fatal(err)
			}
			if n := checkPPrime(t, name, ap, ex, p.DCut); n < 50 {
				t.Fatalf("%s: |P'| = %d, want at least 50", name, n)
			}
		}
	}
}

// FuzzExDPCMatchesScan is the randomized form of the tie tests: small
// point sets on a coarse grid (every coordinate one of eight values,
// so coincident points and equal distances are the norm) must cluster
// bit-identically under Ex-DPC and Scan. Approx-DPC must match Ex-DPC's
// densities and center set (Theorem 4; DeltaMin > DCut) and, on its
// exact set P', Ex-DPC's Dep and Delta bits.
func FuzzExDPCMatchesScan(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(2), []byte("\x00\x01\x01\x00\x01\x01\x00\x00\x02\x02\x07\x07\x06\x07"))
	f.Add(uint8(1), uint8(0), uint8(0), []byte{3, 3, 3, 4, 4, 5, 0, 7})
	f.Add(uint8(3), uint8(5), uint8(1), []byte("density peaks with ties everywhere"))
	f.Fuzz(func(t *testing.T, dim, dcut, rhoMin uint8, coords []byte) {
		d := 1 + int(dim%3)
		n := min(len(coords)/d, 300)
		if n == 0 {
			return
		}
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = float64(coords[i*d+j] % 8)
			}
		}
		ds := geom.MustFromRows(rows)
		dc := 0.5 + float64(dcut%8)/2
		p := Params{DCut: dc, RhoMin: float64(rhoMin % 4), DeltaMin: dc + 0.5, Workers: 2}
		scan, err := Scan{}.ClusterDataset(ds, p)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := ExDPC{}.ClusterDataset(ds, p)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, "Ex-DPC vs Scan", d, scan, ex)
		ap, err := ApproxDPC{}.ClusterDataset(ds, p)
		if err != nil {
			t.Fatal(err)
		}
		checkPPrime(t, "Approx-DPC vs Ex-DPC", ap, ex, dc)
		if !slices.Equal(ap.Centers, ex.Centers) {
			t.Fatalf("Approx-DPC centers %v, Ex-DPC %v", ap.Centers, ex.Centers)
		}
	})
}
