// Package rtree implements an STR (Sort-Tile-Recursive) bulk-loaded R-tree
// over point data. The paper evaluates an "R-tree + Scan" baseline whose
// local densities come from R-tree range searches; this package provides
// that index. Only the operations that baseline needs are implemented:
// bulk construction and circular range counting/search.
package rtree

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// DefaultFanout is the branching factor used when callers pass fanout <= 1.
// 32 keeps the tree shallow on the paper's multi-million point datasets
// while keeping per-node scans cheap.
const DefaultFanout = 32

type entry struct {
	rect  geom.Rect
	child *node // nil for leaf entries
	pt    int32 // dataset index for leaf entries
}

type node struct {
	entries []entry
	leaf    bool
}

// Tree is a read-only STR-packed R-tree over dataset point indices.
type Tree struct {
	ds     *geom.Dataset
	root   *node
	fanout int
	size   int
}

// Build bulk-loads an R-tree over every point of the flat dataset using
// Sort-Tile-Recursive packing with the given fanout (entries per node).
func Build(ds *geom.Dataset, fanout int) *Tree {
	if fanout <= 1 {
		fanout = DefaultFanout
	}
	t := &Tree{ds: ds, fanout: fanout, size: ds.N}
	if ds.N == 0 {
		return t
	}
	ids := make([]int32, ds.N)
	for i := range ids {
		ids[i] = int32(i)
	}
	leaves := t.packLeaves(ids, ds.Dim)
	t.root = t.packUpward(leaves)
	return t
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.size }

// coord reads coordinate dim of point id straight from the flat buffer.
func (t *Tree) coord(id int32, dim int) float64 { return t.ds.Coord(id, dim) }

// packLeaves tiles the point ids into leaf nodes: recursively sort by each
// dimension and cut into vertical slabs sized so that the final groups hold
// at most fanout points (classic STR).
func (t *Tree) packLeaves(ids []int32, d int) []*node {
	groups := t.tile(ids, 0, d)
	leaves := make([]*node, 0, len(groups))
	for _, g := range groups {
		n := &node{leaf: true, entries: make([]entry, 0, len(g))}
		for _, id := range g {
			p := t.ds.At(int(id))
			n.entries = append(n.entries, entry{rect: geom.NewRect(p, p), pt: id})
		}
		leaves = append(leaves, n)
	}
	return leaves
}

// tile recursively partitions ids into groups of at most fanout by sorting
// on dimension dim and slicing into ceil((len/fanout)^(1/(d-dim))) slabs.
func (t *Tree) tile(ids []int32, dim, d int) [][]int32 {
	if len(ids) <= t.fanout || dim == d-1 {
		sort.Slice(ids, func(a, b int) bool { return t.coord(ids[a], dim) < t.coord(ids[b], dim) })
		var groups [][]int32
		for i := 0; i < len(ids); i += t.fanout {
			j := i + t.fanout
			if j > len(ids) {
				j = len(ids)
			}
			groups = append(groups, ids[i:j])
		}
		return groups
	}
	sort.Slice(ids, func(a, b int) bool { return t.coord(ids[a], dim) < t.coord(ids[b], dim) })
	nGroups := (len(ids) + t.fanout - 1) / t.fanout
	nSlabs := int(math.Ceil(math.Pow(float64(nGroups), 1/float64(d-dim))))
	if nSlabs < 1 {
		nSlabs = 1
	}
	slabSize := (len(ids) + nSlabs - 1) / nSlabs
	var groups [][]int32
	for i := 0; i < len(ids); i += slabSize {
		j := i + slabSize
		if j > len(ids) {
			j = len(ids)
		}
		groups = append(groups, t.tile(ids[i:j], dim+1, d)...)
	}
	return groups
}

// packUpward builds internal levels until a single root remains.
func (t *Tree) packUpward(level []*node) *node {
	for len(level) > 1 {
		next := make([]*node, 0, (len(level)+t.fanout-1)/t.fanout)
		for i := 0; i < len(level); i += t.fanout {
			j := i + t.fanout
			if j > len(level) {
				j = len(level)
			}
			parent := &node{entries: make([]entry, 0, j-i)}
			for _, child := range level[i:j] {
				parent.entries = append(parent.entries, entry{rect: nodeRect(child), child: child})
			}
			next = append(next, parent)
		}
		level = next
	}
	return level[0]
}

func nodeRect(n *node) geom.Rect {
	r := geom.EmptyRect(n.entries[0].rect.Dim())
	for _, e := range n.entries {
		r.ExpandRect(e.rect)
	}
	return r
}

// RangeCount returns the number of points with dist(q, p) < r (strict).
func (t *Tree) RangeCount(q []float64, r float64) int {
	count := 0
	t.RangeSearch(q, r, func(int32, float64) { count++ })
	return count
}

// RangeSearch calls fn(id, sqDist) for every point with dist(q, p) < r.
func (t *Tree) RangeSearch(q []float64, r float64, fn func(id int32, sqDist float64)) {
	if t.root == nil {
		return
	}
	sq := r * r
	stack := []*node{t.root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.leaf {
			for i := range n.entries {
				e := &n.entries[i]
				if d := geom.SqDistToIdx(t.ds, q, e.pt); d < sq {
					fn(e.pt, d)
				}
			}
			continue
		}
		for i := range n.entries {
			e := &n.entries[i]
			if e.rect.SqMinDist(q) < sq {
				stack = append(stack, e.child)
			}
		}
	}
}

// Validate checks structural invariants for tests: every child rect is
// contained in its parent entry rect, leaves are all at the same depth, and
// the number of reachable points equals Len.
func (t *Tree) Validate() error {
	if t.root == nil {
		return nil
	}
	seen := 0
	leafDepth := -1
	var walk func(n *node, depth int) error
	walk = func(n *node, depth int) error {
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return errLeafDepth
			}
			seen += len(n.entries)
			return nil
		}
		for i := range n.entries {
			e := &n.entries[i]
			if !e.rect.ContainsRect(nodeRect(e.child)) {
				return errRectContainment
			}
			if err := walk(e.child, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0); err != nil {
		return err
	}
	if seen != t.size {
		return errPointCount
	}
	return nil
}

type validateError string

func (e validateError) Error() string { return string(e) }

const (
	errLeafDepth       = validateError("rtree: leaves at different depths")
	errRectContainment = validateError("rtree: parent rect does not contain child rect")
	errPointCount      = validateError("rtree: reachable point count mismatch")
)
