// Package dbscan implements DBSCAN (Ester et al., KDD 1996) and OPTICS
// (Ankerst et al., SIGMOD 1999) over a kd-tree. The paper uses them only
// as a clustering-quality comparison (Figure 2 and Example 2: DBSCAN
// merges close Gaussian clusters that DPC separates, with DBSCAN's
// parameters chosen from OPTICS so that the target cluster count is
// attainable); this package provides exactly that role.
package dbscan

import (
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/kdtree"
)

// Noise is the label of noise points.
const Noise = int32(-1)

// Result is a DBSCAN clustering.
type Result struct {
	// Labels holds cluster ids in [0, NumClusters) or Noise.
	Labels []int32
	// NumClusters is the number of clusters found.
	NumClusters int
	// Core flags core points.
	Core []bool
}

// Run executes DBSCAN with radius eps and density threshold minPts
// (a point is core when at least minPts points, itself included, lie
// within eps — the inclusive convention of the original paper).
func Run(ds *geom.Dataset, eps float64, minPts int) *Result {
	n := ds.N
	res := &Result{Labels: make([]int32, n), Core: make([]bool, n)}
	if n == 0 {
		return res
	}
	tree := kdtree.BuildAll(ds)
	const unvisited = int32(-2)
	for i := range res.Labels {
		res.Labels[i] = unvisited
	}
	// Precompute neighborhoods lazily; DBSCAN touches each at most twice.
	neighborhood := func(i int32) []int32 {
		var out []int32
		// DBSCAN's eps-neighborhood is closed (dist <= eps); our tree
		// search is strict, so query with the next float up.
		tree.RangeSearch(ds.At(int(i)), math.Nextafter(eps, math.Inf(1)), func(id int32, _ float64) {
			out = append(out, id)
		})
		return out
	}

	var cluster int32
	queue := make([]int32, 0, 1024)
	for i := int32(0); i < int32(n); i++ {
		if res.Labels[i] != unvisited {
			continue
		}
		nb := neighborhood(i)
		if len(nb) < minPts {
			res.Labels[i] = Noise
			continue
		}
		// Expand a new cluster from core point i.
		res.Core[i] = true
		res.Labels[i] = cluster
		queue = queue[:0]
		queue = append(queue, nb...)
		for len(queue) > 0 {
			j := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if res.Labels[j] == Noise {
				res.Labels[j] = cluster // border point adopted by the cluster
			}
			if res.Labels[j] != unvisited {
				continue
			}
			res.Labels[j] = cluster
			nbj := neighborhood(j)
			if len(nbj) >= minPts {
				res.Core[j] = true
				queue = append(queue, nbj...)
			}
		}
		cluster++
	}
	res.NumClusters = int(cluster)
	return res
}

// OPTICSPoint is one entry of the OPTICS ordering.
type OPTICSPoint struct {
	ID           int32
	Reachability float64 // +Inf for the first point of each component
	CoreDist     float64 // +Inf for non-core points
}

// OPTICS computes the OPTICS ordering with parameters eps and minPts.
func OPTICS(ds *geom.Dataset, eps float64, minPts int) []OPTICSPoint {
	n := ds.N
	if n == 0 {
		return nil
	}
	tree := kdtree.BuildAll(ds)
	processed := make([]bool, n)
	reach := make([]float64, n)
	for i := range reach {
		reach[i] = math.Inf(1)
	}
	order := make([]OPTICSPoint, 0, n)

	neighborhood := func(i int32) []nbr {
		var out []nbr
		tree.RangeSearch(ds.At(int(i)), math.Nextafter(eps, math.Inf(1)), func(id int32, sq float64) {
			out = append(out, nbr{id: id, d: math.Sqrt(sq)})
		})
		// (distance, id) order, so equal distances do not come out in the
		// tree's visit order.
		sort.Slice(out, func(a, b int) bool {
			return out[a].d < out[b].d || (out[a].d == out[b].d && out[a].id < out[b].id)
		})
		return out
	}
	coreDist := func(nb []nbr) float64 {
		if len(nb) < minPts {
			return math.Inf(1)
		}
		return nb[minPts-1].d
	}

	// Priority queue of (reachability, id); lazy-deletion heap.
	pq := &reachHeap{}
	for i := int32(0); i < int32(n); i++ {
		if processed[i] {
			continue
		}
		nb := neighborhood(i)
		processed[i] = true
		cd := coreDist(nb)
		order = append(order, OPTICSPoint{ID: i, Reachability: math.Inf(1), CoreDist: cd})
		if !math.IsInf(cd, 1) {
			update(pq, nb, cd, reach, processed)
		}
		for pq.Len() > 0 {
			top := popMin(pq)
			if processed[top] {
				continue
			}
			nbj := neighborhood(top)
			processed[top] = true
			cdj := coreDist(nbj)
			order = append(order, OPTICSPoint{ID: top, Reachability: reach[top], CoreDist: cdj})
			if !math.IsInf(cdj, 1) {
				update(pq, nbj, cdj, reach, processed)
			}
		}
	}
	return order
}

type reachItem struct {
	r  float64
	id int32
}

type reachHeap struct{ items []reachItem }

func (h *reachHeap) Len() int { return len(h.items) }

func pushItem(h *reachHeap, it reachItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].r <= h.items[i].r {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func popMin(h *reachHeap) int32 {
	top := h.items[0].id
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.items) && h.items[l].r < h.items[small].r {
			small = l
		}
		if r < len(h.items) && h.items[r].r < h.items[small].r {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}

// nbr is a neighbor with its distance, used by the OPTICS expansion.
type nbr struct {
	id int32
	d  float64
}

func update(pq *reachHeap, nb []nbr, coreDist float64, reach []float64, processed []bool) {
	for _, x := range nb {
		if processed[x.id] {
			continue
		}
		nr := math.Max(coreDist, x.d)
		if nr < reach[x.id] {
			reach[x.id] = nr
			pushItem(pq, reachItem{r: nr, id: x.id}) // lazy decrease-key
		}
	}
}

// ExtractDBSCAN cuts an OPTICS ordering at reachability threshold
// epsPrime, yielding the DBSCAN clustering that threshold induces. The
// paper picks DBSCAN parameters "so that 15 clusters are obtained from
// OPTICS"; this is the extraction that enables that.
func ExtractDBSCAN(order []OPTICSPoint, epsPrime float64) *Result {
	n := len(order)
	res := &Result{Labels: make([]int32, n), Core: make([]bool, n)}
	for i := range res.Labels {
		res.Labels[i] = Noise
	}
	cluster := int32(-1)
	for _, op := range order {
		if op.Reachability > epsPrime {
			if op.CoreDist <= epsPrime {
				cluster++
				res.Labels[op.ID] = cluster
				res.Core[op.ID] = true
			}
			continue
		}
		if cluster >= 0 {
			res.Labels[op.ID] = cluster
		}
	}
	res.NumClusters = int(cluster + 1)
	return res
}

// ParamsForK searches OPTICS reachability thresholds for one that yields
// exactly k clusters with at least minSize members, returning the
// threshold and ok=false when no candidate threshold works. This mirrors
// the paper's procedure for parameterizing DBSCAN on S2.
func ParamsForK(order []OPTICSPoint, k, minSize int) (float64, bool) {
	// Candidate thresholds: the finite reachability values.
	var cands []float64
	for _, op := range order {
		if !math.IsInf(op.Reachability, 1) {
			cands = append(cands, op.Reachability)
		}
	}
	sort.Float64s(cands)
	for _, eps := range cands {
		res := ExtractDBSCAN(order, eps)
		big := 0
		counts := make(map[int32]int)
		for _, l := range res.Labels {
			if l != Noise {
				counts[l]++
			}
		}
		for _, c := range counts {
			if c >= minSize {
				big++
			}
		}
		if big == k {
			return eps, true
		}
	}
	return 0, false
}
