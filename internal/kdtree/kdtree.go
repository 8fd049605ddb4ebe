// Package kdtree implements an in-memory kd-tree over point indices.
//
// It is the workhorse index of the paper's algorithms: Ex-DPC issues one
// circular range count per point for local densities and, over the same
// tree, one rank-pruned nearest-neighbor walk per point (NNLowerKey) for
// dependent points; Approx-DPC issues one joint range search per grid
// cell and builds s small trees for its exact dependent-point phase.
//
// The tree stores int32 indices into a caller-owned flat geom.Dataset, so
// several trees over subsets of one dataset share the point storage, and
// construction is pure index permutation: no point is ever copied and the
// only allocations are the node arena and the id slice. Nodes live in a
// flat arena to keep pointers out of the GC's way; this matters at the
// paper's cardinalities (10^6-10^7 points).
//
// Bulk construction splits on the dimension of largest spread at each level
// (median split via in-place quickselect), yielding the O(n^{1-1/d} + k)
// range-search guarantee the paper's analysis relies on. Trees are
// read-only once built, so any number of goroutines may query one.
package kdtree

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

const nilNode = int32(-1)

type node struct {
	pt   int32 // index into the dataset
	dim  int32 // splitting dimension
	l, r int32 // children, nilNode when absent
}

// Tree is a kd-tree over a subset of a dataset. The zero value is not
// usable; construct with Build or BuildAll.
type Tree struct {
	ds    *geom.Dataset
	nodes []node
	root  int32
	dim   int
}

// coord returns coordinate dim of point id straight from the flat buffer.
func (t *Tree) coord(id int32, dim int) float64 { return t.ds.Coord(id, dim) }

// Build bulk-loads a balanced tree over the given point indices.
// The ids slice is reordered in place.
func Build(ds *geom.Dataset, ids []int32) *Tree {
	if ds.N == 0 {
		panic("kdtree: Build over empty dataset")
	}
	t := &Tree{ds: ds, root: nilNode, dim: ds.Dim}
	if len(ids) == 0 {
		return t
	}
	t.nodes = make([]node, 0, len(ids))
	t.root = t.build(ids)
	return t
}

// BuildAll bulk-loads a tree over every point of the dataset.
func BuildAll(ds *geom.Dataset) *Tree {
	ids := make([]int32, ds.N)
	for i := range ids {
		ids[i] = int32(i)
	}
	return Build(ds, ids)
}

// Len returns the number of points in the tree.
func (t *Tree) Len() int { return len(t.nodes) }

// build constructs the subtree over ids and returns its node index.
func (t *Tree) build(ids []int32) int32 {
	if len(ids) == 0 {
		return nilNode
	}
	if len(ids) == 1 {
		t.nodes = append(t.nodes, node{pt: ids[0], dim: 0, l: nilNode, r: nilNode})
		return int32(len(t.nodes) - 1)
	}
	dim := t.widestDim(ids)
	mid := len(ids) / 2
	t.selectNth(ids, mid, dim)
	me := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{pt: ids[mid], dim: int32(dim), l: nilNode, r: nilNode})
	l := t.build(ids[:mid])
	r := t.build(ids[mid+1:])
	t.nodes[me].l = l
	t.nodes[me].r = r
	return me
}

// widestDim returns the dimension with the largest coordinate spread among
// the given points; ties resolve to the lowest dimension.
func (t *Tree) widestDim(ids []int32) int {
	lo := make([]float64, t.dim)
	hi := make([]float64, t.dim)
	for j := 0; j < t.dim; j++ {
		lo[j] = math.Inf(1)
		hi[j] = math.Inf(-1)
	}
	buf := make([]float64, t.dim)
	for _, id := range ids {
		p := t.ds.AtBuf(int(id), buf)
		for j := 0; j < t.dim; j++ {
			if p[j] < lo[j] {
				lo[j] = p[j]
			}
			if p[j] > hi[j] {
				hi[j] = p[j]
			}
		}
	}
	best, spread := 0, hi[0]-lo[0]
	for j := 1; j < t.dim; j++ {
		if s := hi[j] - lo[j]; s > spread {
			best, spread = j, s
		}
	}
	return best
}

// selectNth partially sorts ids so that ids[n] holds the element of rank n
// by coordinate dim (Hoare quickselect with median-of-three pivots).
func (t *Tree) selectNth(ids []int32, n, dim int) {
	lo, hi := 0, len(ids)-1
	for lo < hi {
		// Median-of-three pivot to dodge quadratic behaviour on sorted input.
		mid := lo + (hi-lo)/2
		a, b, c := t.coord(ids[lo], dim), t.coord(ids[mid], dim), t.coord(ids[hi], dim)
		var pi int
		switch {
		case (a <= b) == (b <= c):
			pi = mid
		case (b <= a) == (a <= c):
			pi = lo
		default:
			pi = hi
		}
		ids[pi], ids[hi] = ids[hi], ids[pi]
		pivot := t.coord(ids[hi], dim)
		i := lo
		for j := lo; j < hi; j++ {
			if t.coord(ids[j], dim) < pivot {
				ids[i], ids[j] = ids[j], ids[i]
				i++
			}
		}
		ids[i], ids[hi] = ids[hi], ids[i]
		switch {
		case n == i:
			return
		case n < i:
			hi = i - 1
		default:
			lo = i + 1
		}
	}
}

// RangeCount returns the number of tree points with dist(q, p) < r
// (strict, matching Definition 1 of the paper).
func (t *Tree) RangeCount(q []float64, r float64) int {
	if t.root == nilNode {
		return 0
	}
	sq := r * r
	count := 0
	t.rangeWalk(t.root, q, r, sq, func(int32, float64) { count++ })
	return count
}

// RangeSearch calls fn(id, sqDist) for every tree point with
// dist(q, p) < r. The visit order is unspecified.
func (t *Tree) RangeSearch(q []float64, r float64, fn func(id int32, sqDist float64)) {
	if t.root == nilNode {
		return
	}
	t.rangeWalk(t.root, q, r, r*r, fn)
}

// rangeWalk is an explicit-stack traversal; recursion costs show up at the
// paper's dataset sizes.
func (t *Tree) rangeWalk(root int32, q []float64, r, sq float64, fn func(int32, float64)) {
	stack := make([]int32, 0, 64)
	stack = append(stack, root)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.nodes[cur]
		if d, ok := geom.SqDistToIdxPartial(t.ds, q, nd.pt, sq); ok && d < sq {
			fn(nd.pt, d)
		}
		ax := q[nd.dim] - t.coord(nd.pt, int(nd.dim))
		if ax < 0 {
			if nd.l != nilNode {
				stack = append(stack, nd.l)
			}
			if nd.r != nilNode && ax*ax < sq {
				stack = append(stack, nd.r)
			}
		} else {
			if nd.r != nilNode {
				stack = append(stack, nd.r)
			}
			if nd.l != nilNode && ax*ax <= sq {
				stack = append(stack, nd.l)
			}
		}
	}
}

// NN returns the index of the nearest tree point to q and its squared
// distance. It returns (-1, +Inf) when the tree is empty. Points at
// distance zero (duplicates of q, or q itself when it is a tree point)
// are legal results.
func (t *Tree) NN(q []float64) (int32, float64) {
	best := int32(-1)
	bestSq := math.Inf(1)
	if t.root == nilNode {
		return best, bestSq
	}
	t.nn(t.root, q, &best, &bestSq)
	return best, bestSq
}

func (t *Tree) nn(cur int32, q []float64, best *int32, bestSq *float64) {
	nd := &t.nodes[cur]
	if d, ok := geom.SqDistToIdxPartial(t.ds, q, nd.pt, *bestSq); ok && d < *bestSq {
		*bestSq = d
		*best = nd.pt
	}
	ax := q[nd.dim] - t.coord(nd.pt, int(nd.dim))
	near, far := nd.l, nd.r
	if ax >= 0 {
		near, far = nd.r, nd.l
	}
	if near != nilNode {
		t.nn(near, q, best, bestSq)
	}
	if far != nilNode && ax*ax < *bestSq {
		t.nn(far, q, best, bestSq)
	}
}

// NNWithBound returns the nearest tree point to q strictly closer than
// sqrt(boundSq), with its squared distance, or (-1, boundSq) when none
// exists. Passing the best distance found so far lets multi-tree searches
// (Approx-DPC's s-subset dependent-point phase) prune most of the later
// trees instead of re-searching them from scratch.
func (t *Tree) NNWithBound(q []float64, boundSq float64) (int32, float64) {
	best := int32(-1)
	bestSq := boundSq
	if t.root != nilNode {
		t.nn(t.root, q, &best, &bestSq)
	}
	return best, bestSq
}

// Height returns the height of the tree (0 for empty, 1 for a single
// node). Exposed for balance diagnostics in tests.
func (t *Tree) Height() int {
	return t.height(t.root)
}

func (t *Tree) height(cur int32) int {
	if cur == nilNode {
		return 0
	}
	l := t.height(t.nodes[cur].l)
	r := t.height(t.nodes[cur].r)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Validate checks the kd-tree ordering invariant on every node and that the
// node count matches Len. It is meant for tests.
func (t *Tree) Validate() error {
	if t.root == nilNode {
		if len(t.nodes) != 0 {
			return fmt.Errorf("kdtree: empty root but %d nodes", len(t.nodes))
		}
		return nil
	}
	seen := 0
	var walk func(cur int32) error
	walk = func(cur int32) error {
		if cur == nilNode {
			return nil
		}
		seen++
		nd := t.nodes[cur]
		split := t.coord(nd.pt, int(nd.dim))
		var check func(c int32, left bool) error
		check = func(c int32, left bool) error {
			if c == nilNode {
				return nil
			}
			v := t.coord(t.nodes[c].pt, int(nd.dim))
			// Ties may land on either side of the median during bulk
			// construction, so the invariant is non-strict: left <= split,
			// right >= split. Search pruning only relies on this weak form.
			if left && v > split {
				return fmt.Errorf("kdtree: left descendant %d violates split on dim %d (%v > %v)", t.nodes[c].pt, nd.dim, v, split)
			}
			if !left && v < split {
				return fmt.Errorf("kdtree: right descendant %d violates split on dim %d (%v < %v)", t.nodes[c].pt, nd.dim, v, split)
			}
			if err := check(t.nodes[c].l, left); err != nil {
				return err
			}
			return check(t.nodes[c].r, left)
		}
		if err := check(nd.l, true); err != nil {
			return err
		}
		if err := check(nd.r, false); err != nil {
			return err
		}
		if err := walk(nd.l); err != nil {
			return err
		}
		return walk(nd.r)
	}
	if err := walk(t.root); err != nil {
		return err
	}
	if seen != len(t.nodes) {
		return fmt.Errorf("kdtree: reachable nodes %d != stored nodes %d", seen, len(t.nodes))
	}
	return nil
}
