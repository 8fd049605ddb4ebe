package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestFromRowsBasics(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	ds, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N != 3 || ds.Dim != 3 || len(ds.Coords) != 9 {
		t.Fatalf("got N=%d Dim=%d len=%d", ds.N, ds.Dim, len(ds.Coords))
	}
	for i, row := range rows {
		for j, v := range row {
			if ds.At(i)[j] != v {
				t.Fatalf("At(%d)[%d] = %v, want %v", i, j, ds.At(i)[j], v)
			}
		}
	}
	// FromRows copies: mutating the source rows must not affect the dataset.
	rows[0][0] = 999
	if ds.At(0)[0] == 999 {
		t.Error("FromRows aliased the source rows")
	}
}

func TestFromRowsErrors(t *testing.T) {
	cases := [][][]float64{
		nil,
		{},
		{{}},
		{{1, 2}, {3}},
		{{1, math.NaN()}},
		{{math.Inf(1), 1}},
	}
	for i, rows := range cases {
		if _, err := FromRows(rows); err == nil {
			t.Errorf("case %d: invalid rows accepted", i)
		}
	}
}

func TestAtAliasing(t *testing.T) {
	ds := MustFromRows([][]float64{{1, 2}, {3, 4}})
	// At returns a view: writes through it hit the backing array.
	ds.At(1)[0] = 42
	if ds.Coords[2] != 42 {
		t.Errorf("At is not a zero-copy view: Coords[2] = %v", ds.Coords[2])
	}
	// The view's capacity is clipped: append must not bleed into point 2.
	ds2 := MustFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	row := ds2.At(0)
	_ = append(row, 777)
	if ds2.At(1)[0] == 777 {
		t.Error("append through At bled into the next point")
	}
	// Rows()[i] aliases At(i).
	rows := ds2.Rows()
	rows[2][1] = -1
	if ds2.At(2)[1] != -1 {
		t.Error("Rows does not alias the backing array")
	}
}

func TestNewDatasetPanics(t *testing.T) {
	for _, tc := range []struct {
		coords []float64
		dim    int
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{1}, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDataset(%v, %d) did not panic", tc.coords, tc.dim)
				}
			}()
			NewDataset(tc.coords, tc.dim)
		}()
	}
}

func TestIdxKernelsMatchSliceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{1, 2, 3, 8} {
		rows := make([][]float64, 64)
		for i := range rows {
			p := make([]float64, d)
			for j := range p {
				p[j] = rng.NormFloat64() * 100
			}
			rows[i] = p
		}
		ds := MustFromRows(rows)
		out := make([]float64, 1)
		for trial := 0; trial < 200; trial++ {
			i := int32(rng.Intn(len(rows)))
			j := int32(rng.Intn(len(rows)))
			want := SqDist(rows[i], rows[j])
			if got := SqDistIdx(ds, i, j); got != want {
				t.Fatalf("d=%d: SqDistIdx(%d,%d) = %v, want %v", d, i, j, got, want)
			}
			if got := DistIdx(ds, i, j); got != math.Sqrt(want) {
				t.Fatalf("d=%d: DistIdx(%d,%d) = %v", d, i, j, got)
			}
			limit := rng.Float64() * 2 * want
			wantS, wantOK := SqDistPartial(rows[i], rows[j], limit)
			SqDistToRun(ds, rows[i], j, j+1, limit, out)
			if gotS, gotOK := out[0], !(out[0] > limit); gotS != wantS || gotOK != wantOK {
				t.Fatalf("d=%d: one-row SqDistToRun(%d,%d,%v) = (%v,%v), want (%v,%v)",
					d, i, j, limit, gotS, gotOK, wantS, wantOK)
			}
		}
	}
}

func TestDatasetValidate(t *testing.T) {
	if err := MustFromRows([][]float64{{1, 2}}).Validate(); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
	bad := []*Dataset{
		{},
		{Coords: []float64{1}, N: 1, Dim: 0},
		{Coords: []float64{1, 2, 3}, N: 2, Dim: 2},
		{Coords: []float64{1, math.NaN()}, N: 1, Dim: 2},
		{Coords: []float64{math.Inf(-1), 0}, N: 1, Dim: 2},
	}
	for i, ds := range bad {
		if err := ds.Validate(); err == nil {
			t.Errorf("case %d: invalid dataset accepted", i)
		}
	}
}

func TestDatasetBounds(t *testing.T) {
	ds := MustFromRows([][]float64{{1, 7}, {-2, 5}, {4, 6}})
	r := ds.Bounds()
	if r.Lo[0] != -2 || r.Lo[1] != 5 || r.Up[0] != 4 || r.Up[1] != 7 {
		t.Errorf("Bounds = %+v", r)
	}
	want := Bounds(ds.Rows())
	for j := range want.Lo {
		if r.Lo[j] != want.Lo[j] || r.Up[j] != want.Up[j] {
			t.Error("Dataset.Bounds disagrees with slice Bounds")
		}
	}
}
