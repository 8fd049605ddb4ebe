// Package kdtree implements a static, bucketed kd-tree (Friedman,
// Bentley & Finkel, TOMS 1977) over the points of a flat geom.Dataset.
//
// It is the workhorse index of the paper's algorithms. Ex-DPC counts
// local densities with one self-join over the tree's leaf pairs
// (SelfCounts), and over the same tree runs one rank-pruned
// nearest-neighbor walk per point (NNLowerKey) for dependent points.
// Approx-DPC takes Ex-DPC's densities and issues one range search per
// grid cell for its neighbor-cell rule, and the exact dependent-point
// fallbacks of the approximations walk the same whole-dataset tree with
// NNLowerKey.
//
// The paper counts densities with one circular range count per point,
// which measures every close pair twice, once from each end. SelfCounts
// measures each pair once and counts it for both points, and returns
// RangeCount's counts bit for bit: the kernel's squared distance is
// exactly symmetric, since per dimension it squares a rounded
// difference whose sign alone depends on which point comes first, and
// its accumulation order is fixed.
//
// Inner nodes hold only a split plane (dimension and coordinate); points
// live in leaves of at most leafSize. As the build finishes each leaf,
// it copies the leaf's points into one contiguous slab in tree order, at
// the dataset's own precision, so every leaf is one run of rows: each
// query scans a leaf with one call of the canonical early-exit kernel
// (geom.SqDistToRun) into a leafSize buffer, then applies its own accept
// rule to the buffer.
// Counts and distances keep their bits, whichever tree computed them.
// ids maps each copied row back to its dataset id, every answer is
// reported in dataset ids, and Order exposes the row order, in which a
// whole-dataset query pass touches each leaf while it is cached. The
// copy costs n·d elements plus n ids per tree; nodes sit in a flat
// slice in preorder, which keeps pointers out of the GC's way at the
// paper's cardinalities (10^6-10^7 points).
//
// Bulk construction splits on the dimension of largest spread at each
// level (median split via in-place quickselect), yielding the
// O(n^{1-1/d} + k) range-search guarantee the paper's analysis relies
// on. The build is parallel: large subtrees are built by up to the
// caller's worker count of goroutines, each into preorder slots fixed
// by subtree sizes, so the tree is identical for any worker count.
// Trees are read-only once built, so any number of goroutines may
// query one.
package kdtree

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

const nilNode = int32(-1)

// leafSize is the most points a leaf holds.
const leafSize = 16

// node is an inner node or a leaf. Its subtree owns rows [lo, hi). An
// inner node splits them at coordinate split of dimension dim: rows in
// child l are <= split there and rows in child r are >= split. A leaf
// has l == r == nilNode.
type node struct {
	split  float64
	lo, hi int32
	dim    int32
	l, r   int32
}

func (nd *node) leaf() bool { return nd.l == nilNode }

// maxDepth bounds the explicit walk stack. Median splits halve every
// level, so depth stays below 32 for any int32-indexed tree and a
// depth-first walk never holds more than depth+1 pending nodes.
const maxDepth = 64

// Tree is a kd-tree over a subset of a dataset. The zero value is not
// usable; construct with Build or BuildAll.
type Tree struct {
	ds    *geom.Dataset // the dataset the ids index
	rows  *geom.Dataset // the tree's points, copied in tree order
	ids   []int32       // ids[k] is the dataset id of rows row k
	nodes []node        // preorder; the root is nodes[0]
	dim   int
}

// coord returns coordinate dim of dataset point id.
func (t *Tree) coord(id int32, dim int) float64 { return t.ds.Coord(id, dim) }

// forkMin is the smallest subtree the build hands to another
// goroutine: below it, starting one costs more than it saves. Tests
// lower it to fork near the leaves.
var forkMin = 4096

// Build bulk-loads a balanced tree over the given point indices with up
// to workers goroutines (<= 1 builds on the caller's alone). The ids
// slice is reordered in place and kept by the tree, so the caller must
// not modify it afterwards. Subtrees are independent — each permutes
// only its own ids and fills nodes slots fixed by its size — so the
// tree is the same, ids and nodes, for every worker count.
func Build(ds *geom.Dataset, ids []int32, workers int) *Tree {
	if ds.N == 0 {
		panic("kdtree: Build over empty dataset")
	}
	t := &Tree{ds: ds, ids: ids, dim: ds.Dim, rows: &geom.Dataset{N: len(ids), Dim: ds.Dim}}
	if ds.Coords32 != nil {
		t.rows.Coords32 = make([]float32, len(ids)*ds.Dim)
	} else {
		t.rows.Coords = make([]float64, len(ids)*ds.Dim)
	}
	if len(ids) > 0 {
		t.nodes = make([]node, nodeCount(len(ids)))
		b := &builder{t: t, keys: make([]float64, len(ids))}
		b.spare.Store(int32(max(workers, 1) - 1))
		b.build(0, 0, int32(len(ids)), b.scratch())
		b.wg.Wait()
	}
	return t
}

// BuildAll bulk-loads a tree over every point of the dataset on the
// caller's goroutine.
func BuildAll(ds *geom.Dataset) *Tree { return BuildAllWorkers(ds, 1) }

// BuildAllWorkers is BuildAll with up to workers goroutines; the tree
// is the same for every worker count.
func BuildAllWorkers(ds *geom.Dataset, workers int) *Tree {
	ids := make([]int32, ds.N)
	for i := range ids {
		ids[i] = int32(i)
	}
	return Build(ds, ids, workers)
}

// Len returns the number of points in the tree.
func (t *Tree) Len() int { return len(t.ids) }

// Dim returns the dimension of the tree's points.
func (t *Tree) Dim() int { return t.dim }

// Order returns the tree's dataset ids in row order: leaf by leaf, so
// consecutive ids are spatial neighbors. A whole-dataset query pass run
// in this order walks the same paths and touches the same leaves as its
// predecessor, which keeps them in cache. The slice is the tree's own
// and must not be modified.
func (t *Tree) Order() []int32 { return t.ids }

// scan fills buf with the squared distances from q to rows [lo, hi) of
// one leaf through the early-exit run kernel, and returns them. A row
// whose sum passed limit holds a partial sum above limit, so every
// caller's accept rule — strictly below limit, or equal to a best that
// limit bounds from above — rejects it exactly as a completed row would
// be.
func (t *Tree) scan(lo, hi int32, q []float64, limit float64, buf *[leafSize]float64) []float64 {
	out := buf[:hi-lo]
	geom.SqDistToRun(t.rows, q, lo, hi, limit, out)
	return out
}

// nodeCount is the number of nodes the build makes for m points: the
// size of every subtree's run of preorder slots.
func nodeCount(m int) int {
	if m <= leafSize {
		return 1
	}
	return 1 + nodeCount(m/2) + nodeCount(m-m/2)
}

// builder is one Build in progress.
type builder struct {
	t     *Tree
	keys  []float64    // keys[k]: row k's coordinate in its node's split dimension
	spare atomic.Int32 // goroutines the build may still start
	wg    sync.WaitGroup
}

// scratch is one goroutine's per-dimension buffers for widestDim.
type scratch struct{ lo, hi, row []float64 }

func (b *builder) scratch() *scratch {
	d := b.t.dim
	return &scratch{lo: make([]float64, d), hi: make([]float64, d), row: make([]float64, d)}
}

// build writes the subtree over rows [lo, hi) into the nodes from slot
// me on, in preorder, and returns the slot after its last node. Each
// node gathers its split dimension's coordinates into keys and
// quickselects keys and ids together. While the build may still start
// goroutines, a subtree of at least forkMin points hands its left child
// to a new one: the right child's slot follows from the left child's
// size alone, so both halves fill their own slots concurrently.
func (b *builder) build(me, lo, hi int32, s *scratch) int32 {
	t := b.t
	if hi-lo <= leafSize {
		t.nodes[me] = node{lo: lo, hi: hi, l: nilNode, r: nilNode}
		t.copyRows(lo, hi)
		return me + 1
	}
	ids, keys := t.ids[lo:hi], b.keys[lo:hi]
	dim := t.widestDim(ids, s)
	for k, id := range ids {
		keys[k] = t.coord(id, dim)
	}
	half := len(ids) / 2
	selectNth(keys, ids, half)
	split := keys[half] // read before the children reuse keys
	mid := lo + int32(half)
	l := me + 1
	var r, end int32
	if hi-lo >= int32(forkMin) && b.spare.Add(-1) >= 0 {
		r = l + int32(nodeCount(half))
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.build(l, lo, mid, b.scratch())
		}()
		end = b.build(r, mid, hi, s)
	} else {
		r = b.build(l, lo, mid, s)
		end = b.build(r, mid, hi, s)
	}
	t.nodes[me] = node{split: split, lo: lo, hi: hi, dim: int32(dim), l: l, r: r}
	return end
}

// copyRows copies the dataset rows of ids[lo:hi], a finished leaf, into
// rows [lo, hi) of the tree's copy.
func (t *Tree) copyRows(lo, hi int32) {
	d := t.dim
	a, b := int(lo)*d, int(hi)*d
	if src := t.ds.Coords32; src != nil {
		dst := t.rows.Coords32[a:b]
		for k, id := range t.ids[lo:hi] {
			copy(dst[k*d:(k+1)*d], src[int(id)*d:])
		}
		return
	}
	dst := t.rows.Coords[a:b]
	for k, id := range t.ids[lo:hi] {
		copy(dst[k*d:(k+1)*d], t.ds.Coords[int(id)*d:])
	}
}

// widestDim returns the dimension with the largest coordinate spread among
// the given points; ties resolve to the lowest dimension.
func (t *Tree) widestDim(ids []int32, s *scratch) int {
	lo, hi := s.lo, s.hi
	for j := 0; j < t.dim; j++ {
		lo[j] = math.Inf(1)
		hi[j] = math.Inf(-1)
	}
	for _, id := range ids {
		p := t.ds.AtBuf(int(id), s.row)
		lo, hi := lo[:len(p)], hi[:len(p)]
		for j, x := range p {
			lo[j] = min(lo[j], x)
			hi[j] = max(hi[j], x)
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

// selectNth partially sorts keys, moving ids in step, so that keys[n]
// holds the element of rank n (Hoare quickselect with median-of-three
// pivots).
func selectNth(keys []float64, ids []int32, n int) {
	swap := func(a, b int) {
		keys[a], keys[b] = keys[b], keys[a]
		ids[a], ids[b] = ids[b], ids[a]
	}
	lo, hi := 0, len(keys)-1
	for lo < hi {
		// Median-of-three pivot to dodge quadratic behaviour on sorted input.
		mid := lo + (hi-lo)/2
		a, b, c := keys[lo], keys[mid], keys[hi]
		var pi int
		switch {
		case (a <= b) == (b <= c):
			pi = mid
		case (b <= a) == (a <= c):
			pi = lo
		default:
			pi = hi
		}
		swap(pi, hi)
		pivot := keys[hi]
		i := lo
		for j := lo; j < hi; j++ {
			if keys[j] < pivot {
				swap(i, j)
				i++
			}
		}
		swap(i, hi)
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

// rangeWalk is an explicit-stack walk over the leaves a ball of squared
// radius sq around q can reach; recursion costs show up at the paper's
// dataset sizes.
type rangeWalk struct {
	stack [maxDepth]int32
	n     int
}

// next returns the next leaf to scan, or nil when the walk is done.
func (w *rangeWalk) next(t *Tree, q []float64, sq float64) *node {
	for w.n > 0 {
		w.n--
		nd := &t.nodes[w.stack[w.n]]
		if nd.leaf() {
			return nd
		}
		ax := q[nd.dim] - nd.split
		if ax < 0 {
			if ax*ax < sq {
				w.stack[w.n] = nd.r
				w.n++
			}
			w.stack[w.n] = nd.l
		} else {
			if ax*ax <= sq {
				w.stack[w.n] = nd.l
				w.n++
			}
			w.stack[w.n] = nd.r
		}
		w.n++
	}
	return nil
}

// start returns a walk from the root, or an empty one for an empty tree.
func (t *Tree) start() rangeWalk {
	var w rangeWalk
	if len(t.nodes) > 0 {
		w.n = 1
	}
	return w
}

// RangeCount returns the number of tree points with dist(q, p) < r
// (strict, matching Definition 1 of the paper).
func (t *Tree) RangeCount(q []float64, r float64) int {
	sq := r * r
	count := 0
	var buf [leafSize]float64
	w := t.start()
	for nd := w.next(t, q, sq); nd != nil; nd = w.next(t, q, sq) {
		for _, d := range t.scan(nd.lo, nd.hi, q, sq, &buf) {
			if d < sq {
				count++
			}
		}
	}
	return count
}

// RangeSearch calls fn(id, sqDist) for every tree point with
// dist(q, p) < r. The visit order is unspecified.
func (t *Tree) RangeSearch(q []float64, r float64, fn func(id int32, sqDist float64)) {
	sq := r * r
	var buf [leafSize]float64
	w := t.start()
	for nd := w.next(t, q, sq); nd != nil; nd = w.next(t, q, sq) {
		ids := t.ids[nd.lo:nd.hi]
		for k, d := range t.scan(nd.lo, nd.hi, q, sq, &buf) {
			if d < sq {
				fn(ids[k], d)
			}
		}
	}
}

// NN returns the index of the nearest tree point to q and its squared
// distance. It returns (-1, +Inf) when the tree is empty. Points at
// distance zero (duplicates of q, or q itself when it is a tree point)
// are legal results. On equal squared distance the lowest dataset id
// wins, so the answer does not depend on the tree's visit order.
func (t *Tree) NN(q []float64) (int32, float64) {
	return t.NNWithBound(q, math.Inf(1))
}

// NNWithBound returns the nearest tree point to q strictly closer than
// sqrt(boundSq), with its squared distance, or (-1, boundSq) when none
// exists; exact ties go to the lowest dataset id, as in NN. A bound
// known in advance (the best distance found so far, or a cutoff such as
// d_cut²) prunes every subtree that cannot hold a closer point.
func (t *Tree) NNWithBound(q []float64, boundSq float64) (int32, float64) {
	w := nnWalk{t: t, q: q, best: -1, bestSq: boundSq}
	if len(t.nodes) > 0 {
		w.walk(0)
	}
	return w.best, w.bestSq
}

type nnWalk struct {
	t      *Tree
	q      []float64
	best   int32
	bestSq float64
	buf    [leafSize]float64
}

func (w *nnWalk) walk(cur int32) {
	t := w.t
	nd := &t.nodes[cur]
	if nd.leaf() {
		ids := t.ids[nd.lo:nd.hi]
		for k, d := range t.scan(nd.lo, nd.hi, w.q, w.bestSq, &w.buf) {
			if d < w.bestSq || (d == w.bestSq && w.best >= 0 && ids[k] < w.best) {
				w.best, w.bestSq = ids[k], d
			}
		}
		return
	}
	ax := w.q[nd.dim] - nd.split
	near, far := nd.l, nd.r
	if ax >= 0 {
		near, far = nd.r, nd.l
	}
	w.walk(near)
	if ax*ax <= w.bestSq {
		w.walk(far)
	}
}

// Validate checks the tree's invariants and is meant for tests: nodes
// are in preorder with every child after its parent, each inner node's
// children split its rows at the median and respect its split plane,
// the leaves partition the rows and hold at most leafSize each, and
// every copied row equals its dataset point.
func (t *Tree) Validate() error {
	if len(t.nodes) == 0 {
		if len(t.ids) != 0 {
			return fmt.Errorf("kdtree: no nodes but %d ids", len(t.ids))
		}
		return nil
	}
	if t.rows.N != len(t.ids) {
		return fmt.Errorf("kdtree: %d rows for %d ids", t.rows.N, len(t.ids))
	}
	seen, next := 0, int32(0) // next is the row the next leaf must start at
	var walk func(cur, parent int32) error
	walk = func(cur, parent int32) error {
		if cur <= parent || int(cur) >= len(t.nodes) {
			return fmt.Errorf("kdtree: node %d under parent %d is out of preorder", cur, parent)
		}
		seen++
		nd := t.nodes[cur]
		if nd.leaf() {
			if nd.lo != next || nd.hi <= nd.lo || nd.hi-nd.lo > leafSize {
				return fmt.Errorf("kdtree: leaf %d holds rows [%d, %d), want a run of 1..%d from %d", cur, nd.lo, nd.hi, leafSize, next)
			}
			next = nd.hi
			return nil
		}
		l, r := t.nodes[nd.l], t.nodes[nd.r]
		if l.lo != nd.lo || l.hi != r.lo || r.hi != nd.hi || l.hi != nd.lo+(nd.hi-nd.lo)/2 {
			return fmt.Errorf("kdtree: node %d rows [%d, %d) split as [%d, %d) + [%d, %d)", cur, nd.lo, nd.hi, l.lo, l.hi, r.lo, r.hi)
		}
		// Ties may land on either side of the median, so the invariant
		// is non-strict: left <= split <= right. Search pruning only
		// relies on this weak form.
		for k := nd.lo; k < nd.hi; k++ {
			v := t.coord(t.ids[k], int(nd.dim))
			if (k < l.hi && v > nd.split) || (k >= l.hi && v < nd.split) {
				return fmt.Errorf("kdtree: point %d at row %d is on the wrong side of node %d's split on dim %d (%v vs %v)", t.ids[k], k, cur, nd.dim, v, nd.split)
			}
		}
		if err := walk(nd.l, cur); err != nil {
			return err
		}
		return walk(nd.r, cur)
	}
	if err := walk(0, -1); err != nil {
		return err
	}
	if seen != len(t.nodes) || int(next) != len(t.ids) {
		return fmt.Errorf("kdtree: reached %d of %d nodes and %d of %d rows", seen, len(t.nodes), next, len(t.ids))
	}
	buf := make([]float64, t.dim)
	for k, id := range t.ids {
		want := t.ds.AtBuf(int(id), buf)
		for j, x := range want {
			if got := t.rows.Coord(int32(k), j); math.Float64bits(got) != math.Float64bits(x) {
				return fmt.Errorf("kdtree: row %d coordinate %d is %v, dataset point %d has %v", k, j, got, id, x)
			}
		}
	}
	return nil
}
