package densindex

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/partition"
)

// Update derives the index of a slid window from the index of the
// previous one: ds must be the indexed dataset with its first expired
// rows removed and appended new rows added at the end (the service's
// sliding-window append). Surviving pairs keep their order — filtered
// and id-shifted — and only the appended points are searched, each with
// one range query against the new version's whole-dataset kd-tree,
// which the new index keeps. The result is byte-identical to
// Build(ds, ...) at the same ceiling: rows are (sq, id)-sorted, the
// distance kernel is deterministic per point pair, and squared distance
// is exactly symmetric per dimension, so a recomputed distance or its
// mirror cannot differ from the build's by a single bit.
//
// Cost is one tree build (parallel over workers), one range query per
// appended point, one binary search of the survivor's old row per
// mirrored edge, and O(E) filtering and copying: the searches grow with
// the mutation, not the dataset. The same ErrTooDense budget applies as
// in Build.
func Update(x *Index, ds *geom.Dataset, expired, appended, workers int, maxEdges int64) (*Index, error) {
	if x == nil {
		return nil, fmt.Errorf("densindex: update of a nil index")
	}
	if ds == nil || ds.N == 0 {
		return nil, fmt.Errorf("densindex: empty dataset")
	}
	if ds.Dim != x.ds.Dim {
		return nil, fmt.Errorf("densindex: update dimension %d, index has %d", ds.Dim, x.ds.Dim)
	}
	if expired < 0 || expired > x.ds.N || appended < 0 {
		return nil, fmt.Errorf("densindex: update expiring %d of %d points, appending %d", expired, x.ds.N, appended)
	}
	base := x.ds.N - expired // surviving old points keep order at ids [0, base)
	n := ds.N
	if n != base+appended {
		return nil, fmt.Errorf("densindex: update dataset has %d points, want %d survivors + %d appended", n, base, appended)
	}
	workers = core.Params{Workers: workers}.WorkerCount()
	tree := kdtree.BuildAllWorkers(ds, workers)

	// rows[j] is appended point base+j's whole row, (sq, id)-sorted: its
	// range query runs against every point of the new version. The
	// queries run in tree order, as Build's do, so consecutive searches
	// scan the same leaves while they are cached.
	var byLeaf []int32
	for _, i := range tree.Order() {
		if int(i) >= base {
			byLeaf = append(byLeaf, i)
		}
	}
	rows := make([][]edge, appended)
	partition.DynamicWorkers(appended, workers, 4, func() func(int) {
		buf := make([]float64, ds.Dim)
		var row []edge
		return func(k int) {
			i := byLeaf[k]
			row = neighbors(tree, ds.AtBuf(int(i), buf), i, x.dcMax, row)
			rows[int(i)-base] = slices.Clone(row)
		}
	})

	// The survivor->appended edges are the mirror of the appended rows'
	// survivor entries: the reverse pair has the exact same squared
	// distance. They go into one CSR slab, survivor i's at
	// mirror[mstart[i]:mstart[i+1]]: count, place, then sort each slice.
	mstart := make([]int64, base+1)
	for _, row := range rows {
		for _, e := range row {
			if int(e.id) < base {
				mstart[e.id+1]++
			}
		}
	}
	for i := 0; i < base; i++ {
		mstart[i+1] += mstart[i]
	}
	mirror := make([]edge, mstart[base])
	next := slices.Clone(mstart[:base])
	for j, row := range rows {
		for _, e := range row {
			if int(e.id) < base {
				mirror[next[e.id]] = edge{sq: e.sq, id: int32(base + j)}
				next[e.id]++
			}
		}
	}
	partition.DynamicChunked(base, workers, 64, func(i int) {
		sortEdges(mirror[mstart[i]:mstart[i+1]])
	})

	// Count pass: survivors keep their old edges minus the expired ones
	// and gain their mirrored edges; appended points take their rows.
	// The neighbor relation is symmetric, so a survivor's expired
	// neighbors are exactly the expired rows' entries for it: only those
	// rows are read.
	exp := int32(expired)
	start := make([]int64, n+1)
	for _, id := range x.ids[:x.start[expired]] {
		if id >= exp {
			start[id-exp+1]--
		}
	}
	for i := 0; i < base; i++ {
		oi := i + expired
		start[i+1] += x.start[oi+1] - x.start[oi] + mstart[i+1] - mstart[i]
	}
	for j, row := range rows {
		start[base+j+1] = int64(len(row))
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	total := start[n]
	if maxEdges > 0 && total > maxEdges {
		return nil, fmt.Errorf("%w: %d entries at dcut<=%g after update, budget %d — lower the index ceiling or raise the edge budget",
			ErrTooDense, total, x.dcMax, maxEdges)
	}

	nx := &Index{ds: ds, dcMax: x.dcMax, tree: tree, start: start, ids: make([]int32, total)}
	// Fill pass. Surviving edges keep their relative (sq, id) order under
	// the uniform id shift, so a survivor with no mirrored edge is a
	// filtered copy. Mirrored edges all point at appended ids, above
	// every surviving id, so on equal sq the surviving edges go first:
	// each mirrored edge lands after the old row's entries at or below
	// its sq, found by an upper-bound search over their distances,
	// recomputed on the old dataset with old ids (expired entries
	// included, which only the copy drops).
	partition.DynamicWorkers(n, workers, 16, func() func(int) {
		buf := make([]float64, ds.Dim)
		return func(i int) {
			ids := nx.ids[start[i]:start[i+1]]
			if i >= base {
				for k, e := range rows[i-base] {
					ids[k] = e.id
				}
				return
			}
			oi := i + expired
			old := x.ids[x.start[oi]:x.start[oi+1]]
			m := mirror[mstart[i]:mstart[i+1]]
			q := x.ds.AtBuf(oi, buf)
			w, e := 0, 0
			for _, me := range m {
				// d <= me.sq is d < the next float above it.
				k := e + below(x.ds, q, old[e:], math.Nextafter(me.sq, math.Inf(1)))
				w = keep(ids, w, old[e:k], exp)
				ids[w] = me.id
				w, e = w+1, k
			}
			keep(ids, w, old[e:], exp)
		}
	})
	return nx, nil
}

// keep copies the unexpired ids of src, shifted down by exp, to dst
// from w on and returns the next free position.
func keep(dst []int32, w int, src []int32, exp int32) int {
	for _, id := range src {
		if id >= exp {
			dst[w] = id - exp
			w++
		}
	}
	return w
}
