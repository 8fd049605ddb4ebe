package kdtree

import "math"

// KNN returns the k nearest tree points to q as (ids, sqDists), ordered
// by ascending (distance, id): on equal squared distance the lower
// dataset id ranks first, whatever the visit order. Fewer than k results
// are returned when the tree is smaller. It is used by the FastDPeak
// baseline, whose local density is derived from the k-NN distance.
func (t *Tree) KNN(q []float64, k int) ([]int32, []float64) {
	if k <= 0 || len(t.nodes) == 0 {
		return nil, nil
	}
	h := &maxHeap{cap: k}
	t.knn(0, q, h)
	// Extract in ascending order.
	ids := make([]int32, len(h.items))
	sqs := make([]float64, len(h.items))
	for i := len(h.items) - 1; i >= 0; i-- {
		it := h.popMax()
		ids[i] = it.id
		sqs[i] = it.sq
	}
	return ids, sqs
}

func (t *Tree) knn(cur int32, q []float64, h *maxHeap) {
	nd := &t.nodes[cur]
	if nd.leaf() {
		// Once the heap is full a row can only enter strictly below or
		// level with its root, so the root bounds the scan.
		limit := math.Inf(1)
		if len(h.items) == h.cap {
			limit = h.items[0].sq
		}
		ids := t.ids[nd.lo:nd.hi]
		for k, d := range t.scan(nd.lo, nd.hi, q, limit, &h.buf) {
			if d <= limit {
				h.offer(ids[k], d)
			}
		}
		return
	}
	ax := q[nd.dim] - nd.split
	near, far := nd.l, nd.r
	if ax >= 0 {
		near, far = nd.r, nd.l
	}
	t.knn(near, q, h)
	if len(h.items) < h.cap || ax*ax <= h.items[0].sq {
		t.knn(far, q, h)
	}
}

type knnItem struct {
	sq float64
	id int32
}

// less orders items by (sq, id).
func (a knnItem) less(b knnItem) bool {
	return a.sq < b.sq || (a.sq == b.sq && a.id < b.id)
}

// maxHeap keeps the k smallest (sq, id) items seen, with the largest at
// the root for O(log k) replacement.
type maxHeap struct {
	items []knnItem
	cap   int
	buf   [leafSize]float64
}

func (h *maxHeap) offer(id int32, sq float64) {
	if len(h.items) < h.cap {
		h.items = append(h.items, knnItem{sq: sq, id: id})
		h.siftUp(len(h.items) - 1)
		return
	}
	it := knnItem{sq: sq, id: id}
	if !it.less(h.items[0]) {
		return
	}
	h.items[0] = it
	h.siftDown(0)
}

func (h *maxHeap) popMax() knnItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top
}

func (h *maxHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.items[p].less(h.items[i]) {
			return
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *maxHeap) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && h.items[big].less(h.items[l]) {
			big = l
		}
		if r < n && h.items[big].less(h.items[r]) {
			big = r
		}
		if big == i {
			return
		}
		h.items[i], h.items[big] = h.items[big], h.items[i]
		i = big
	}
}
