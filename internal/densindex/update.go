package densindex

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/partition"
)

// Update derives the index of a slid window from the index of the
// previous one: ds must be the indexed dataset with its first expired
// rows removed and appended new rows added at the end (the service's
// sliding-window append). Surviving pairs keep their stored squared
// distances — filtered and id-shifted, never recomputed — and only the
// appended points are searched, each with one range query against the
// new version's whole-dataset kd-tree, which the new index keeps. The
// result is byte-identical to Build(ds, ...) at the same ceiling: rows
// are (sq, id)-sorted, the distance kernel is deterministic per point
// pair, and squared distance is exactly symmetric per dimension, so
// reusing a stored value or its mirror cannot change a single bit.
//
// Cost is one tree build (parallel over workers), one range query per
// appended point, and O(E) filtering and copying: the only searches
// are the appended points', so they grow with the mutation, not the
// dataset. The same ErrTooDense budget applies as in Build.
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

	// rows[j] is appended point base+j's whole stored row, (sq, id)-sorted:
	// its range query runs against every point of the new version.
	rows := make([][]edge, appended)
	partition.DynamicWorkers(appended, workers, 4, func() func(int) {
		buf := make([]float64, ds.Dim)
		var row []edge
		return func(j int) {
			i := base + j
			row = row[:0]
			tree.RangeSearch(ds.AtBuf(i, buf), x.dcMax, func(id int32, d float64) {
				if int(id) != i {
					row = append(row, edge{sq: d, id: id})
				}
			})
			sortEdges(row)
			rows[j] = slices.Clone(row)
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
	exp := int32(expired)
	start := make([]int64, n+1)
	partition.DynamicChunked(n, workers, 64, func(i int) {
		if i >= base {
			start[i+1] = int64(len(rows[i-base]))
			return
		}
		oi := i + expired
		lo, hi := x.start[oi], x.start[oi+1]
		kept := hi - lo
		if exp > 0 {
			for e := lo; e < hi; e++ {
				if x.ids[e] < exp {
					kept--
				}
			}
		}
		start[i+1] = kept + mstart[i+1] - mstart[i]
	})
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	total := start[n]
	if maxEdges > 0 && total > maxEdges {
		return nil, fmt.Errorf("%w: %d entries at dcut<=%g after update, budget %d — lower the index ceiling or raise the edge budget",
			ErrTooDense, total, x.dcMax, maxEdges)
	}

	nx := &Index{
		ds: ds, dcMax: x.dcMax, tree: tree,
		start: start,
		ids:   make([]int32, total),
		sq:    make([]float64, total),
	}
	// Fill pass. Surviving edges keep their relative (sq, id) order under
	// the uniform id shift, so a survivor with no mirrored edge is a
	// filtered copy. Mirrored edges all point at appended ids, above
	// every surviving id, so on equal sq the surviving edge goes first,
	// and a two-cursor merge on sq alone lands the exact layout a fresh
	// build would sort into.
	partition.DynamicChunked(n, workers, 16, func(i int) {
		ids, sq := nx.ids[start[i]:start[i+1]], nx.sq[start[i]:start[i+1]]
		if i >= base {
			for k, e := range rows[i-base] {
				ids[k], sq[k] = e.id, e.sq
			}
			return
		}
		oi := i + expired
		oids, osq := x.ids[x.start[oi]:x.start[oi+1]], x.sq[x.start[oi]:x.start[oi+1]]
		m := mirror[mstart[i]:mstart[i+1]]
		w := 0
		if len(m) == 0 {
			for e, id := range oids {
				if id >= exp {
					ids[w], sq[w] = id-exp, osq[e]
					w++
				}
			}
			return
		}
		k := 0
		for e, id := range oids {
			if id < exp {
				continue
			}
			for ; k < len(m) && m[k].sq < osq[e]; k++ {
				ids[w], sq[w] = m[k].id, m[k].sq
				w++
			}
			ids[w], sq[w] = id-exp, osq[e]
			w++
		}
		for ; k < len(m); k++ {
			ids[w], sq[w] = m[k].id, m[k].sq
			w++
		}
	})
	return nx, nil
}
