package kdtree

import (
	"math"

	"repro/internal/geom"
)

// SubtreeMin returns, per node of the arena, the minimum of key[pt] over
// the node's subtree — the pruning bound NNLowerKey walks with. Build
// appends every node after its parent, so one reverse pass over the
// arena sees each child before its parent.
func (t *Tree) SubtreeMin(key []int32) []int32 {
	sub := make([]int32, len(t.nodes))
	for k := len(t.nodes) - 1; k >= 0; k-- {
		nd := &t.nodes[k]
		m := key[nd.pt]
		if nd.l != nilNode && sub[nd.l] < m {
			m = sub[nd.l]
		}
		if nd.r != nilNode && sub[nd.r] < m {
			m = sub[nd.r]
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
// ascending key order would return, bit for bit: distances come from
// the same geom.SqDistIdxPartial(ds, q, j, bestSq) call.
//
// With key the density rank this is the dependent point of q
// (Definition 2 of the paper) over a whole-dataset tree.
func (t *Tree) NNLowerKey(q int32, key, sub []int32) (int32, float64) {
	w := lowerKeyWalk{t: t, key: key, sub: sub, q: q, qKey: key[q], best: -1, bestSq: math.Inf(1)}
	if t.root != nilNode {
		w.walk(t.root)
	}
	return w.best, w.bestSq
}

type lowerKeyWalk struct {
	t        *Tree
	key, sub []int32
	q, qKey  int32
	best     int32
	bestSq   float64
}

func (w *lowerKeyWalk) walk(cur int32) {
	if w.sub[cur] >= w.qKey {
		return
	}
	t := w.t
	nd := &t.nodes[cur]
	if k := w.key[nd.pt]; k < w.qKey {
		if d, ok := geom.SqDistIdxPartial(t.ds, w.q, nd.pt, w.bestSq); ok &&
			(d < w.bestSq || (d == w.bestSq && w.best >= 0 && k < w.key[w.best])) {
			w.best, w.bestSq = nd.pt, d
		}
	}
	ax := t.coord(w.q, int(nd.dim)) - t.coord(nd.pt, int(nd.dim))
	near, far := nd.l, nd.r
	if ax >= 0 {
		near, far = nd.r, nd.l
	}
	if near != nilNode {
		w.walk(near)
	}
	if far != nilNode && ax*ax <= w.bestSq {
		w.walk(far)
	}
}
