package kdtree

import "math"

// SubtreeMin returns, per node, the minimum of key[id] over the node's
// points — a per-leaf minimum for leaves — the pruning bound NNLowerKey
// walks with. Build lays nodes out in preorder, so one reverse pass
// sees each child before its parent.
func (t *Tree) SubtreeMin(key []int32) []int32 {
	sub := make([]int32, len(t.nodes))
	for k := len(t.nodes) - 1; k >= 0; k-- {
		nd := &t.nodes[k]
		if !nd.leaf() {
			sub[k] = min(sub[nd.l], sub[nd.r])
			continue
		}
		m := int32(math.MaxInt32)
		for _, id := range t.ids[nd.lo:nd.hi] {
			m = min(m, key[id])
		}
		sub[k] = m
	}
	return sub
}

// NNLowerKey returns the nearest tree point j to dataset point q with
// key[j] < key[q], and its squared distance, or (-1, +Inf) when no tree
// point has a lower key. sub must be SubtreeMin(key) for the tree as it
// stands. Subtrees whose minimum key is not below key[q] are skipped
// whole. On equal squared distance the lower key wins, and the far-side
// test keeps exact ties (ax*ax <= bestSq), so the answer is the
// (squared distance, key) minimum a scan of every lower-key point in
// ascending key order would return, bit for bit: q's row is widened
// once (exactly) and compared through the canonical kernel, which gives
// the bits of geom.SqDistIdx(ds, q, j) for every point it accepts, at
// either precision.
//
// buf, when it has room for Dim values, receives q's widened row on an
// f32 dataset, so a pass that walks from every point can widen into one
// buffer per worker instead of allocating a row per point.
//
// With key the density rank this is the dependent point of q
// (Definition 2 of the paper) over a whole-dataset tree.
func (t *Tree) NNLowerKey(q int32, key, sub []int32, buf []float64) (int32, float64) {
	w := lowerKeyWalk{t: t, key: key, sub: sub, qKey: key[q], best: -1, bestSq: math.Inf(1)}
	if len(t.nodes) > 0 {
		w.q = t.ds.AtBuf(int(q), buf)
		w.walk(0)
	}
	return w.best, w.bestSq
}

type lowerKeyWalk struct {
	t        *Tree
	key, sub []int32
	q        []float64
	qKey     int32
	best     int32
	bestSq   float64
	buf      [leafSize]float64
}

func (w *lowerKeyWalk) walk(cur int32) {
	if w.sub[cur] >= w.qKey {
		return
	}
	t := w.t
	nd := &t.nodes[cur]
	if nd.leaf() {
		// Scan each run of lower-key rows with one kernel call; rows
		// the key excludes cost no distance.
		ids := t.ids[nd.lo:nd.hi]
		for a := 0; a < len(ids); {
			if w.key[ids[a]] >= w.qKey {
				a++
				continue
			}
			b := a + 1
			for b < len(ids) && w.key[ids[b]] < w.qKey {
				b++
			}
			for k, v := range t.scan(nd.lo+int32(a), nd.lo+int32(b), w.q, w.bestSq, &w.buf) {
				j := ids[a+k]
				if v < w.bestSq || (v == w.bestSq && w.best >= 0 && w.key[j] < w.key[w.best]) {
					w.best, w.bestSq = j, v
				}
			}
			a = b
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
