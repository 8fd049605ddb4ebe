// Package lsh implements p-stable locality-sensitive hashing (Datar et al.,
// SoCG 2004) for Euclidean distance, the bucketing scheme used by the
// LSH-DDP baseline (Zhang et al., TKDE 2016).
//
// A single hash is h(p) = floor((a.p + b) / w) with a ~ N(0, I) and
// b ~ U[0, w). A compound hash concatenates k such values, and a table
// groups points by their compound key. LSH-DDP runs M compound tables and
// treats bucket-mates as the candidate neighborhood of each point.
package lsh

import (
	"encoding/binary"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// Params configures an LSH forest.
type Params struct {
	// Tables is M, the number of compound hash tables.
	Tables int
	// Hashes is k, the number of concatenated hashes per table.
	Hashes int
	// Width is w, the quantization width. LSH-DDP ties it to d_cut so that
	// points within d_cut usually share buckets.
	Width float64
	// Seed drives the random projections.
	Seed int64
}

// DefaultParams mirrors the configuration the paper attributes to LSH-DDP:
// a handful of compound tables whose width tracks the cutoff distance.
func DefaultParams(dcut float64) Params {
	return Params{Tables: 4, Hashes: 2, Width: 4 * dcut, Seed: 1}
}

type hashFunc struct {
	a []float64
	b float64
}

type table struct {
	funcs   []hashFunc
	width   float64
	buckets map[string][]int32
	// keys remembers each point's bucket key for O(1) lookup.
	keys []string
}

// Forest is a set of M compound LSH tables over one dataset.
type Forest struct {
	params Params
	tables []table
	n      int
}

// Build hashes every point of the flat dataset into all tables.
func Build(ds *geom.Dataset, p Params) *Forest {
	if p.Tables < 1 {
		p.Tables = 1
	}
	if p.Hashes < 1 {
		p.Hashes = 1
	}
	if p.Width <= 0 {
		panic("lsh: non-positive width")
	}
	d := ds.Dim
	if ds.N == 0 {
		d = 0
	}
	rng := rand.New(rand.NewSource(p.Seed))
	f := &Forest{params: p, n: ds.N}
	f.tables = make([]table, p.Tables)
	for t := range f.tables {
		tb := &f.tables[t]
		tb.width = p.Width
		tb.funcs = make([]hashFunc, p.Hashes)
		for h := range tb.funcs {
			a := make([]float64, d)
			for j := range a {
				a[j] = rng.NormFloat64()
			}
			tb.funcs[h] = hashFunc{a: a, b: rng.Float64() * p.Width}
		}
		tb.buckets = make(map[string][]int32)
		tb.keys = make([]string, ds.N)
		keyBuf := make([]byte, 8*p.Hashes)
		for i := 0; i < ds.N; i++ {
			k := tb.key(ds.At(i), keyBuf)
			tb.buckets[k] = append(tb.buckets[k], int32(i))
			tb.keys[i] = k
		}
	}
	return f
}

func (tb *table) key(p []float64, buf []byte) string {
	for h, fn := range tb.funcs {
		var dot float64
		for j, x := range p {
			dot += fn.a[j] * x
		}
		v := int64(math.Floor((dot + fn.b) / tb.width))
		binary.LittleEndian.PutUint64(buf[8*h:], uint64(v))
	}
	return string(buf)
}

// Candidates invokes fn once per distinct bucket-mate of point i across all
// tables (i itself excluded). Deduplication uses the caller-provided stamp
// slice (len n, reset implicitly via the epoch value), so repeated calls
// do not allocate; this is the hot path of LSH-DDP.
func (f *Forest) Candidates(i int32, stamp []int32, epoch int32, fn func(j int32)) {
	for t := range f.tables {
		tb := &f.tables[t]
		for _, j := range tb.buckets[tb.keys[i]] {
			if j == i || stamp[j] == epoch {
				continue
			}
			stamp[j] = epoch
			fn(j)
		}
	}
}
