package kdtree

import (
	"sync"

	"repro/internal/geom"
	"repro/internal/partition"
)

// SelfCounts returns, indexed by dataset id, every tree point's count of
// tree points p with dist(x, p) < r, x itself included: RangeCount(x, r)
// for every member x at once. Dataset points outside the tree count 0.
//
// It is one symmetric self-join over leaf pairs, so each pair's
// distance is computed once and counted for both points. Leaves are
// taken as query blocks in row order, by dynamic self-scheduling over
// up to workers goroutines. Each block walks the tree once, pruning a
// subtree by its split plane's gap to the block's bounding box and
// skipping every leaf earlier in row order than the block, whose walk
// already paired the two. A candidate leaf whose bounding box lies at
// least r from the block's is skipped whole. Past that, a block row
// skips it when the row lies at least r from the leaf's box, and
// otherwise scans it with one early-exit kernel call at limit r².
//
// Every pair is still decided by the canonical kernel, and the squared
// distance it returns is exactly symmetric: each dimension's term is
// the square of a rounded difference whose sign alone depends on the
// argument order, and the order of the sum is fixed. So every count
// equals RangeCount's, bit for bit, at either precision and for any
// worker count. The prunes are exact too: each lower bound is a term,
// or a sum in the kernel's order of terms, no larger than the pair's
// own, and rounded sums of non-negative terms are monotone in them.
func (t *Tree) SelfCounts(r float64, workers int) []int32 {
	out := make([]int32, t.ds.N)
	sq := r * r
	if len(t.nodes) == 0 || !(sq > 0) {
		return out // no distance, not even a point's own 0, is below sq
	}
	j := t.newJoin(sq)

	var mu sync.Mutex
	var locals [][]int32
	partition.DynamicWorkers(len(j.leaves), workers, 1, func() func(int) {
		w := j.worker()
		mu.Lock()
		locals = append(locals, w.counts)
		mu.Unlock()
		return w.block
	})
	for k, id := range t.ids {
		var c int32
		for _, counts := range locals {
			c += counts[k]
		}
		out[id] = c
	}
	return out
}

// join is one SelfCounts in progress: the leaves in row order and
// their bounding boxes.
type join struct {
	t      *Tree
	sq     float64
	leaves []int32   // node index of every leaf, in row order
	leafOf []int32   // leafOf[node]: the node's position in leaves, for leaves
	box    []float64 // leaf k's box: lo at box[2kd:2kd+d], hi after it
}

func (t *Tree) newJoin(sq float64) *join {
	d := t.dim
	j := &join{t: t, sq: sq, leafOf: make([]int32, len(t.nodes))}
	for i := range t.nodes {
		if t.nodes[i].leaf() {
			j.leafOf[i] = int32(len(j.leaves))
			j.leaves = append(j.leaves, int32(i)) // preorder visits leaves in row order
		}
	}
	j.box = make([]float64, 2*d*len(j.leaves))
	row := make([]float64, d)
	for k, ni := range j.leaves {
		nd := &t.nodes[ni]
		lo, hi := j.leafBox(int32(k))
		copy(lo, t.rows.AtBuf(int(nd.lo), row))
		copy(hi, lo)
		for i := nd.lo + 1; i < nd.hi; i++ {
			for c, x := range t.rows.AtBuf(int(i), row) {
				lo[c] = min(lo[c], x)
				hi[c] = max(hi[c], x)
			}
		}
	}
	return j
}

// leafBox returns the low and high corners of leaf k's bounding box.
func (j *join) leafBox(k int32) (lo, hi []float64) {
	d := j.t.dim
	b := j.box[2*d*int(k) : 2*d*(int(k)+1)]
	return b[:d], b[d:]
}

// joinWorker is one goroutine's share of a join: its own counts, by
// tree row, and scratch.
type joinWorker struct {
	*join
	counts []int32
	q      [leafSize][]float64 // the block's rows, widened
	wide   []float64           // backing for q on f32 rows
	u, v   []float64           // a pair of nearest corners, or a row and its nearest box point
	buf    [leafSize]float64
	stack  [maxDepth]int32
}

func (j *join) worker() *joinWorker {
	d := j.t.dim
	return &joinWorker{
		join:   j,
		counts: make([]int32, len(j.t.ids)),
		wide:   make([]float64, leafSize*d),
		u:      make([]float64, d),
		v:      make([]float64, d),
	}
}

// block pairs leaf k with itself and with every later leaf its walk
// reaches.
func (w *joinWorker) block(k int) {
	t, sq := w.t, w.sq
	a := &t.nodes[w.leaves[k]]
	d := t.dim
	for i := a.lo; i < a.hi; i++ {
		r := i - a.lo
		w.q[r] = t.rows.AtBuf(int(i), w.wide[int(r)*d:int(r+1)*d])
	}

	// The diagonal: each row with the rows after it, and itself once.
	for i := a.lo; i < a.hi; i++ {
		w.counts[i]++
		if i+1 == a.hi {
			break
		}
		for c, dist := range t.scan(i+1, a.hi, w.q[i-a.lo], sq, &w.buf) {
			if dist < sq {
				w.counts[i]++
				w.counts[i+1+int32(c)]++
			}
		}
	}

	// Every later leaf the block's box can reach. A subtree ending at or
	// before the block's last row holds no later leaf. The left child's
	// rows are <= split and the right child's >= split, so a gap between
	// the plane and the box bounds every pair across it from below.
	lo, hi := w.leafBox(int32(k))
	n := 1
	w.stack[0] = 0
	for n > 0 {
		n--
		ni := w.stack[n]
		nd := &t.nodes[ni]
		if nd.hi <= a.hi {
			continue
		}
		if nd.leaf() {
			w.pair(int32(k), w.leafOf[ni])
			continue
		}
		if g := lo[nd.dim] - nd.split; !(g > 0 && g*g >= sq) {
			w.stack[n] = nd.l
			n++
		}
		if g := nd.split - hi[nd.dim]; !(g > 0 && g*g >= sq) {
			w.stack[n] = nd.r
			n++
		}
	}
}

// pair counts every pair of a row of leaf ka and a row of the later
// leaf kb closer than r. Each bound below is the kernel's distance
// between two points whose coordinates lie, dimension by dimension,
// between those of the rows they stand for, so it bounds every such
// pair's distance from below.
func (w *joinWorker) pair(ka, kb int32) {
	t, sq := w.t, w.sq
	a, b := &t.nodes[w.leaves[ka]], &t.nodes[w.leaves[kb]]
	alo, ahi := w.leafBox(ka)
	lo, hi := w.leafBox(kb)
	// The two boxes' nearest corners.
	u, v := w.u, w.v
	for c := range u {
		switch {
		case ahi[c] < lo[c]:
			u[c], v[c] = ahi[c], lo[c]
		case alo[c] > hi[c]:
			u[c], v[c] = alo[c], hi[c]
		default:
			u[c], v[c] = 0, 0
		}
	}
	if geom.SqDist(u, v) >= sq {
		return
	}
	for i := a.lo; i < a.hi; i++ {
		// A row and the point of b's box nearest it.
		q := w.q[i-a.lo]
		for c, x := range q {
			v[c] = min(max(x, lo[c]), hi[c])
		}
		if geom.SqDist(q, v) >= sq {
			continue
		}
		hits := int32(0)
		for c, dist := range t.scan(b.lo, b.hi, q, sq, &w.buf) {
			if dist < sq {
				hits++
				w.counts[b.lo+int32(c)]++
			}
		}
		w.counts[i] += hits
	}
}
