package geom

import (
	"fmt"
	"math"
)

// Dataset is a flat, row-major point set: point i occupies
// Coords[i*Dim : (i+1)*Dim]. One contiguous backing array replaces the
// [][]float64 representation on every hot path, so the inner distance
// loops of the clustering algorithms stream over contiguous memory
// instead of chasing a pointer per point — the cache-conscious layout
// the paper's multicore speedups assume.
//
// The zero value is an empty dataset. Construct with NewDataset over an
// existing flat buffer (zero copy) or FromRows over row slices (one
// copy). Mutating Coords after handing the Dataset to an index is the
// caller's responsibility, exactly as it was for shared [][]float64.
//
// A dataset stores its coordinates at one of two precisions. The
// default is float64 in Coords. The opt-in float32 mode (NewDataset32,
// ToFloat32) stores them in Coords32 instead — halving memory and
// bandwidth for embedding-like workloads — and leaves Coords nil; the
// distance kernels read the f32 rows directly, widening each element to
// float64 exactly, so all derived quantities stay float64. Exactly one
// of Coords/Coords32 is non-nil on a non-empty dataset.
type Dataset struct {
	// Coords is the float64 row-major backing array; len(Coords) ==
	// N*Dim. Nil when the dataset is stored at float32 precision.
	Coords []float64
	// Coords32 is the float32 backing array of an f32-precision
	// dataset; len(Coords32) == N*Dim. Nil in the default f64 mode.
	Coords32 []float32
	// N is the number of points.
	N int
	// Dim is the dimensionality of every point.
	Dim int
}

// NewDataset wraps an existing flat buffer without copying. It panics
// when dim < 1 or len(coords) is not a multiple of dim, because that is
// always a programming error in this codebase.
func NewDataset(coords []float64, dim int) *Dataset {
	if dim < 1 {
		panic(fmt.Sprintf("geom: NewDataset with dim %d", dim))
	}
	if len(coords)%dim != 0 {
		panic(fmt.Sprintf("geom: NewDataset with %d coords not divisible by dim %d", len(coords), dim))
	}
	return &Dataset{Coords: coords, N: len(coords) / dim, Dim: dim}
}

// NewDataset32 wraps an existing flat float32 buffer without copying —
// the f32-precision counterpart of NewDataset.
func NewDataset32(coords []float32, dim int) *Dataset {
	if dim < 1 {
		panic(fmt.Sprintf("geom: NewDataset32 with dim %d", dim))
	}
	if len(coords)%dim != 0 {
		panic(fmt.Sprintf("geom: NewDataset32 with %d coords not divisible by dim %d", len(coords), dim))
	}
	return &Dataset{Coords32: coords, N: len(coords) / dim, Dim: dim}
}

// Float32 reports whether the dataset stores its coordinates at float32
// precision.
func (ds *Dataset) Float32() bool { return ds.Coords32 != nil }

// Precision returns the dataset's storage precision as the API-facing
// string: "f32" or "f64".
func (ds *Dataset) Precision() string {
	if ds.Coords32 != nil {
		return "f32"
	}
	return "f64"
}

// ToFloat32 returns an f32-precision copy of the dataset, narrowing
// each coordinate with float32(x) (round to nearest). The receiver is
// returned unchanged when already f32. Narrowing is lossy; it is the
// explicit opt-in the upload ?precision=f32 parameter performs.
func (ds *Dataset) ToFloat32() *Dataset {
	if ds.Coords32 != nil {
		return ds
	}
	coords := make([]float32, len(ds.Coords))
	for i, x := range ds.Coords {
		coords[i] = float32(x)
	}
	return &Dataset{Coords32: coords, N: ds.N, Dim: ds.Dim}
}

// row64 returns the float64 row of point i, capacity-clipped. Callers
// must know the dataset is f64 (the kernels branch on Coords32 first).
func (ds *Dataset) row64(i int32) []float64 {
	o := int(i) * ds.Dim
	return ds.Coords[o : o+ds.Dim : o+ds.Dim]
}

// row32 returns the float32 row of point i, capacity-clipped.
func (ds *Dataset) row32(i int32) []float32 {
	o := int(i) * ds.Dim
	return ds.Coords32[o : o+ds.Dim : o+ds.Dim]
}

// PackRows copies row-slice points into a fresh flat Dataset, checking
// only the shape (non-empty, rectangular, d >= 1). Callers that need the
// NaN/Inf guarantee use FromRows, or run Validate once on the result —
// the split lets the clustering entry points avoid scanning the
// coordinates twice.
func PackRows(rows [][]float64) (*Dataset, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("geom: empty dataset")
	}
	d := len(rows[0])
	if d == 0 {
		return nil, fmt.Errorf("geom: zero-dimensional point at index 0")
	}
	coords := make([]float64, 0, len(rows)*d)
	for i, p := range rows {
		if len(p) != d {
			return nil, fmt.Errorf("geom: point %d has dimension %d, want %d", i, len(p), d)
		}
		coords = append(coords, p...)
	}
	return &Dataset{Coords: coords, N: len(rows), Dim: d}, nil
}

// FromRows copies row-slice points into a fresh flat Dataset — the one
// copy the public [][]float64 API pays to enter the flat representation.
// It validates the rows: rectangular, d >= 1, no NaN/Inf.
func FromRows(rows [][]float64) (*Dataset, error) {
	ds, err := PackRows(rows)
	if err != nil {
		return nil, err
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// MustFromRows is FromRows for callers with known-good data (tests,
// generators); it panics on invalid input.
func MustFromRows(rows [][]float64) *Dataset {
	ds, err := FromRows(rows)
	if err != nil {
		panic(err)
	}
	return ds
}

// At returns point i as a float64 row. On the default f64 precision it
// is a zero-copy subslice of the backing array with the capacity
// clipped to Dim, so an append through the returned slice can never
// bleed into the next point. On an f32 dataset it allocates a widened
// copy (widening is exact) — correct everywhere, but hot per-point code
// should use the Idx kernels or AtBuf instead.
func (ds *Dataset) At(i int) Point {
	if ds.Coords32 != nil {
		return ds.widen(i, make(Point, ds.Dim))
	}
	o := i * ds.Dim
	return ds.Coords[o : o+ds.Dim : o+ds.Dim]
}

// AtBuf is At reusing buf (when it has capacity Dim) for the widened
// row of an f32 dataset; on f64 datasets it returns the zero-copy view
// and ignores buf. The returned slice aliases the dataset on f64 and
// buf on f32 — callers that loop must not hold rows across iterations.
func (ds *Dataset) AtBuf(i int, buf Point) Point {
	if ds.Coords32 != nil {
		if cap(buf) < ds.Dim {
			buf = make(Point, ds.Dim)
		}
		return ds.widen(i, buf[:ds.Dim])
	}
	o := i * ds.Dim
	return ds.Coords[o : o+ds.Dim : o+ds.Dim]
}

func (ds *Dataset) widen(i int, dst Point) Point {
	row := ds.Coords32[i*ds.Dim : (i+1)*ds.Dim]
	for t, x := range row {
		dst[t] = float64(x)
	}
	return dst
}

// Len returns the number of points.
func (ds *Dataset) Len() int { return ds.N }

// Coord returns coordinate j of point i straight from the flat buffer —
// the single place that knows the row-major indexing arithmetic. On an
// f32 dataset the value is widened exactly.
func (ds *Dataset) Coord(i int32, j int) float64 {
	if ds.Coords32 != nil {
		return float64(ds.Coords32[int(i)*ds.Dim+j])
	}
	return ds.Coords[int(i)*ds.Dim+j]
}

// Rows returns zero-copy row headers over the backing array: Rows()[i]
// aliases the same memory as At(i). It exists for row-oriented consumers
// (rendering, CSV emit) at the edge of the system; algorithms should stay
// on the flat representation.
func (ds *Dataset) Rows() [][]float64 {
	rows := make([][]float64, ds.N)
	for i := range rows {
		rows[i] = ds.At(i)
	}
	return rows
}

// Validate checks that the dataset is non-empty, at least 1-dimensional,
// and free of NaN/Inf coordinates.
func (ds *Dataset) Validate() error {
	if ds.N == 0 {
		return fmt.Errorf("geom: empty dataset")
	}
	if ds.Dim == 0 {
		return fmt.Errorf("geom: zero-dimensional point at index 0")
	}
	if ds.Coords32 != nil {
		if ds.Coords != nil {
			return fmt.Errorf("geom: dataset has both float64 and float32 backing arrays")
		}
		if len(ds.Coords32) != ds.N*ds.Dim {
			return fmt.Errorf("geom: dataset has %d coords, want %d (N=%d, Dim=%d)", len(ds.Coords32), ds.N*ds.Dim, ds.N, ds.Dim)
		}
		for o, x := range ds.Coords32 {
			if v := float64(x); math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("geom: point %d coordinate %d is %v", o/ds.Dim, o%ds.Dim, v)
			}
		}
		return nil
	}
	if len(ds.Coords) != ds.N*ds.Dim {
		return fmt.Errorf("geom: dataset has %d coords, want %d (N=%d, Dim=%d)", len(ds.Coords), ds.N*ds.Dim, ds.N, ds.Dim)
	}
	for o, x := range ds.Coords {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("geom: point %d coordinate %d is %v", o/ds.Dim, o%ds.Dim, x)
		}
	}
	return nil
}

// Bounds returns the minimum bounding rectangle of the dataset.
// It panics when the dataset is empty.
func (ds *Dataset) Bounds() Rect {
	if ds.N == 0 {
		panic("geom: Bounds of empty point set")
	}
	r := EmptyRect(ds.Dim)
	buf := make(Point, ds.Dim)
	for i := 0; i < ds.N; i++ {
		r.Expand(ds.AtBuf(i, buf))
	}
	return r
}

// Fingerprint returns a 64-bit FNV-1a hash over the dataset's shape and
// the exact bit patterns of its coordinates. Two datasets fingerprint
// equally iff they are bit-identical (same precision, same bits), so
// the persistence layer uses it to pair a model snapshot with the
// dataset it was fitted on and to detect a preloaded dataset that
// matches a restored one. The f64 hash is unchanged from before the
// f32 mode existed, so snapshots taken then still verify; an f32
// dataset mixes a precision tag first so it can never collide with the
// f64 dataset holding the same widened values.
func (ds *Dataset) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	if ds.Coords32 != nil {
		mix('f'<<8 | '3'<<16 | '2'<<24)
		mix(uint64(ds.N))
		mix(uint64(ds.Dim))
		for _, x := range ds.Coords32 {
			mix(uint64(math.Float32bits(x)))
		}
		return h
	}
	mix(uint64(ds.N))
	mix(uint64(ds.Dim))
	for _, x := range ds.Coords {
		mix(math.Float64bits(x))
	}
	return h
}
