// Package densindex implements a parameter-flexible density index for
// density-peaks clustering, after the FINEX idea (index once, re-cut per
// parameter setting): one per-dataset structure from which density rho,
// dependent distance delta, the decision graph, and full label vectors
// for any d_cut up to a build-time ceiling are derived without a
// neighbor search.
//
// The structure is a CSR adjacency of every point's neighbors within
// DCutMax, each list sorted by ascending squared distance. Only the
// neighbor ids are stored: a consumer recomputes the distances it needs
// with the canonical full-sum kernel, which returns the very bits the
// build's range search sorted by, from either end of a pair. Rho at any
// d_cut <= DCutMax is a binary search over a row's recomputed distances
// (the strict count of neighbors closer than d_cut, plus self and the
// framework jitter), and delta/dep fall out of one ordered scan of the
// same lists that recomputes only the first denser neighbor's distance
// and its ties. Points that are local density maxima at the DCutMax
// scale have no stored denser neighbor; they are answered by one
// nearest-neighbor walk over a whole-dataset kd-tree that skips every
// subtree holding no denser point (core.WalkDependents, the walk Ex-DPC
// runs for every point).
// Every index owns one such tree, built by Build or Update where the
// version is made, and shares it with the served model's assigner.
// Update slides the index across a window append: it range-searches
// only the appended points, one query each against the new version's
// own tree, and mirrors their rows onto the survivors.
// The kd-tree's range search, the recomputed distances and the walk all
// run the same kernel — the same float operations, in the same order,
// as the Scan kernels — so a re-cut's Rho/Delta/Dep (and therefore its
// labels) are byte-identical to a fresh fit of the covered algorithms.
//
// Covered algorithms: Scan, R-tree + Scan, and Ex-DPC — the framework's
// exact algorithms, which share the strict-threshold density of
// Definition 1 and the nearest-higher-density dependency of Definition
// 2. Approximate and sampling algorithms (LSH-DDP, Approx-DPC, ...)
// compute different quantities and are not reproducible from this
// index.
package densindex

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/partition"
)

// covered is the set of algorithms whose fits an index re-cut
// reproduces byte-for-byte.
var covered = map[string]bool{
	"Scan":          true,
	"R-tree + Scan": true,
	"Ex-DPC":        true,
}

// Covers reports whether a re-cut of the index reproduces the named
// algorithm's fit exactly.
func Covers(algorithm string) bool { return covered[algorithm] }

// CoveredAlgorithms lists the covered algorithm names, sorted.
func CoveredAlgorithms() []string {
	out := make([]string, 0, len(covered))
	for name := range covered {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Index is the frozen per-dataset structure. It references the dataset
// (no copy) and is immutable after Build/Update — safe for concurrent
// Cut and Decision calls.
type Index struct {
	ds    *geom.Dataset
	dcMax float64

	// tree is the whole-dataset kd-tree the local-maximum walk runs on:
	// the one Build or Update ranged with.
	tree *kdtree.Tree

	// CSR neighbor lists: point i's neighbors strictly within dcMax are
	// ids[start[i]:start[i+1]], sorted by (squared distance from i, id).
	// Self is excluded; id order on equal distances keeps the layout
	// deterministic across builds. The distances are not stored:
	// geom.SqDistToIdx from point i's row recomputes each bit for bit.
	start []int64
	ids   []int32
}

// ErrTooDense is wrapped by Build when the neighbor lists would exceed
// the edge budget; callers retry with a smaller d_cut ceiling or give
// up.
var ErrTooDense = fmt.Errorf("densindex: neighbor lists exceed the edge budget")

// Build constructs the index with neighborhood ceiling dcMax: every
// point pair closer than dcMax is materialized once per endpoint.
// maxEdges caps the total stored entries (<= 0 means no cap) — each
// entry costs 4 bytes, and a dcMax far above the useful d_cut range
// degenerates toward n^2.
func Build(ds *geom.Dataset, dcMax float64, workers int, maxEdges int64) (*Index, error) {
	if ds == nil || ds.N == 0 {
		return nil, fmt.Errorf("densindex: empty dataset")
	}
	// A ceiling whose square underflows to 0 counts no point, not even
	// itself, which would leave every count below the self it excludes.
	if !(dcMax > 0) || !(dcMax*dcMax > 0) || math.IsInf(dcMax, 1) {
		return nil, fmt.Errorf("densindex: dcut ceiling must be a positive finite number with a positive square, got %g", dcMax)
	}
	n := ds.N
	workers = core.Params{Workers: workers}.WorkerCount()
	tree := kdtree.BuildAllWorkers(ds, workers)

	// Count pass: exact per-point neighbor counts size the CSR slabs, so
	// the fill pass never reallocates and the edge budget is checked
	// before the big allocation. The counts come from one symmetric
	// self-join, the same density pass an Ex-DPC fit runs, minus self.
	// The fill pass visits points in tree order, so consecutive searches
	// scan the same leaves while they are cached.
	start := make([]int64, n+1)
	for i, c := range tree.SelfCounts(dcMax, workers) {
		start[i+1] = start[i] + int64(c) - 1 // exclude self
	}
	byLeaf := tree.Order()
	total := start[n]
	if maxEdges > 0 && total > maxEdges {
		return nil, fmt.Errorf("%w: %d entries at dcut<=%g, budget %d — lower the requested dcut or raise the index edge budget",
			ErrTooDense, total, dcMax, maxEdges)
	}

	x := &Index{ds: ds, dcMax: dcMax, tree: tree, start: start, ids: make([]int32, total)}
	partition.DynamicWorkers(n, workers, 4, func() func(int) {
		buf := make([]float64, ds.Dim)
		var row []edge
		return func(k int) {
			i := byLeaf[k]
			row = neighbors(tree, ds.AtBuf(int(i), buf), i, dcMax, row)
			for w, e := range row {
				x.ids[start[i]+int64(w)] = e.id
			}
		}
	})
	return x, nil
}

// edge is one neighbor with its squared distance, held only while a row
// is sorted or merged; sq values are finite and non-negative so a plain
// < comparison is a total order.
type edge struct {
	sq float64
	id int32
}

// neighbors returns point i's neighbors strictly within r of its row q,
// itself excluded, in (sq, id) order, reusing row's storage. The sort is
// a concrete-typed quicksort whose comparisons inline — both sort.Sort
// and the generic slices.SortFunc pay an indirect call per comparison,
// which over the index's millions of entries dominated the whole build.
func neighbors(tree *kdtree.Tree, q geom.Point, i int32, r float64, row []edge) []edge {
	row = row[:0]
	tree.RangeSearch(q, r, func(id int32, d float64) {
		if id != i {
			row = append(row, edge{sq: d, id: id})
		}
	})
	sortEdges(row)
	return row
}

// below counts the entries of a (sq, id)-sorted row whose squared
// distance from q is below limit: a binary search that recomputes only
// the distances it probes, one kernel call per halving and one more.
func below(ds *geom.Dataset, q geom.Point, ids []int32, limit float64) int {
	if len(ids) == 0 {
		return 0
	}
	base, n := 0, len(ids)
	for n > 1 {
		half := n / 2
		if geom.SqDistToIdx(ds, q, ids[base+half]) < limit {
			base += half
		}
		n -= half
	}
	if geom.SqDistToIdx(ds, q, ids[base]) < limit {
		base++
	}
	return base
}

// edgeLess is the (sq, id) total order; (sq, id) pairs are unique within
// a row, so every correct sort yields the same byte layout.
func edgeLess(a, b edge) bool {
	return a.sq < b.sq || (a.sq == b.sq && a.id < b.id)
}

// sortEdges is quicksort with median-of-three pivots and an insertion
// sort floor, recursing into the smaller half so the stack stays
// O(log n) even on adversarial rows.
func sortEdges(e []edge) {
	for len(e) > 24 {
		p := partitionEdges(e)
		if p < len(e)-p {
			sortEdges(e[:p])
			e = e[p+1:]
		} else {
			sortEdges(e[p+1:])
			e = e[:p]
		}
	}
	insertionEdges(e)
}

func insertionEdges(e []edge) {
	for i := 1; i < len(e); i++ {
		x := e[i]
		j := i - 1
		for j >= 0 && edgeLess(x, e[j]) {
			e[j+1] = e[j]
			j--
		}
		e[j+1] = x
	}
}

// partitionEdges orders e[0], e[mid], e[hi], parks the median next to
// the end as the pivot, and Hoare-scans the interior; the two outer
// elements act as sentinels so the inner loops need no bounds checks.
func partitionEdges(e []edge) int {
	hi := len(e) - 1
	m := len(e) / 2
	if edgeLess(e[m], e[0]) {
		e[0], e[m] = e[m], e[0]
	}
	if edgeLess(e[hi], e[0]) {
		e[0], e[hi] = e[hi], e[0]
	}
	if edgeLess(e[hi], e[m]) {
		e[m], e[hi] = e[hi], e[m]
	}
	e[m], e[hi-1] = e[hi-1], e[m]
	pivot := e[hi-1]
	i, j := 0, hi-1
	for {
		for i++; edgeLess(e[i], pivot); i++ {
		}
		for j--; edgeLess(pivot, e[j]); j-- {
		}
		if i >= j {
			break
		}
		e[i], e[j] = e[j], e[i]
	}
	e[i], e[hi-1] = e[hi-1], e[i]
	return i
}

// DCutMax returns the neighborhood ceiling: Cut and Decision accept any
// d_cut in (0, DCutMax].
func (x *Index) DCutMax() float64 { return x.dcMax }

// Edges returns the number of stored neighbor entries.
func (x *Index) Edges() int64 { return x.start[len(x.start)-1] }

// N returns the indexed point count.
func (x *Index) N() int { return x.ds.N }

// Tree returns the index's whole-dataset kd-tree. It is read-only and
// may be shared, e.g. with the assigner of a model cut from this index.
func (x *Index) Tree() *kdtree.Tree { return x.tree }

// checkDC validates a requested cut distance against the ceiling.
func (x *Index) checkDC(dcut float64) error {
	if !(dcut > 0) || math.IsInf(dcut, 1) {
		return fmt.Errorf("densindex: dcut must be a positive finite number, got %g", dcut)
	}
	if dcut > x.dcMax {
		return fmt.Errorf("densindex: dcut %g exceeds the index ceiling %g", dcut, x.dcMax)
	}
	return nil
}

// rho computes the density vector at dcut: for each point, one binary
// search for the strict squared-distance threshold, plus self and the
// framework jitter — the exact value the Scan kernels compute from a
// full distance pass.
func (x *Index) rho(dcut float64, workers int) []float64 {
	sqCut := dcut * dcut
	out := make([]float64, x.ds.N)
	partition.DynamicWorkers(x.ds.N, workers, 64, func() func(int) {
		buf := make([]float64, x.ds.Dim)
		return func(i int) {
			k := below(x.ds, x.ds.AtBuf(i, buf), x.ids[x.start[i]:x.start[i+1]], sqCut)
			// k stored neighbors strictly within dcut, +1 for the point
			// itself (the kernels' self-comparison accumulates 0 < dcut^2).
			out[i] = float64(k+1) + core.Jitter(i)
		}
	})
	return out
}

// deltaDep derives delta and dep from a density vector. For each
// non-peak point the dependent is found in its stored list, recomputing
// the first denser entry's distance and then each later denser entry's
// until one differs: the nearest
// stored neighbor of higher density is the true nearest higher-density
// point, because any closer higher-density point would itself be stored
// (all pairs within dcMax are). Ties on squared distance resolve to the
// earliest-in-density-order candidate, exactly like the framework's
// scanDelta; tying with an unstored point is impossible (unstored
// means >= dcMax^2, stored means < dcMax^2). Points with no stored
// higher-density neighbor — local density maxima at the dcMax scale —
// are answered by core.WalkDependents over the index's kd-tree, the
// rank-pruned walk Ex-DPC runs for every point, which returns the same
// (squared distance, rank) minimum as scanDelta's scan of every denser
// point, from the same distance kernel.
func (x *Index) deltaDep(rho []float64, workers int) (delta []float64, dep []int32) {
	n := x.ds.N
	order := core.DensityOrder(rho, workers)
	rank := make([]int32, n)
	for r, i := range order {
		rank[i] = int32(r)
	}
	delta = make([]float64, n)
	dep = make([]int32, n)
	peak := order[0]
	delta[peak] = math.Inf(1)
	dep[peak] = core.NoDependent
	partition.DynamicWorkers(n-1, workers, 8, func() func(int) {
		buf := make([]float64, x.ds.Dim)
		return func(k int) {
			i := order[k+1]
			q := x.ds.AtBuf(int(i), buf)
			myRank := rank[i]
			best := core.NoDependent
			bestSq := math.Inf(1)
			for _, j := range x.ids[x.start[i]:x.start[i+1]] {
				if rank[j] >= myRank {
					continue
				}
				d := geom.SqDistToIdx(x.ds, q, j)
				if best == core.NoDependent {
					best, bestSq = j, d
					continue
				}
				if d != bestSq {
					break // rows are sq-ascending: no more ties possible
				}
				if rank[j] < rank[best] {
					best = j
				}
			}
			delta[i] = math.Sqrt(bestSq)
			dep[i] = best
		}
	})

	// Local maxima at the dcMax scale: the only place a cut touches raw
	// coordinates.
	var maxima []int32
	for _, i := range order[1:] {
		if dep[i] == core.NoDependent {
			maxima = append(maxima, i)
		}
	}
	if len(maxima) > 0 {
		core.WalkDependents(x.tree, rank, maxima, delta, dep, workers)
	}
	return delta, dep
}

// Decision computes the decision graph at dcut: per-point density and
// dependent distance, without center selection or labeling.
func (x *Index) Decision(dcut float64, workers int) (rho, delta []float64, err error) {
	if err := x.checkDC(dcut); err != nil {
		return nil, nil, err
	}
	workers = core.Params{Workers: workers}.WorkerCount()
	rho = x.rho(dcut, workers)
	delta, _ = x.deltaDep(rho, workers)
	return rho, delta, nil
}

// Cut derives the full clustering for p — Rho, Delta, Dep, Centers,
// Labels — byte-identical to a fresh fit of any covered algorithm at
// the same parameters. p.DCut must be in (0, DCutMax]; p.Workers
// follows core.Params semantics. Timing.Build is zero: the index's
// kd-tree was built with the index.
func (x *Index) Cut(p core.Params) (*core.Result, error) {
	if err := x.checkDC(p.DCut); err != nil {
		return nil, err
	}
	workers := p.WorkerCount()
	res := &core.Result{}
	start := time.Now()
	res.Rho = x.rho(p.DCut, workers)
	res.Timing.Rho = time.Since(start)
	start = time.Now()
	res.Delta, res.Dep = x.deltaDep(res.Rho, workers)
	res.Timing.Delta = time.Since(start)
	start = time.Now()
	core.Finalize(res, p)
	res.Timing.Label = time.Since(start)
	return res, nil
}
