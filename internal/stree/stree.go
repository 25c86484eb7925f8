// Package stree implements the signature tree (S-tree) behind the
// database's sublinear retrieval mode: a balanced, bulk-loaded tree over
// per-candidate histogram bound boxes, in the spirit of Le & Van's S-tree
// over binary color signatures. Every candidate contributes one
// axis-aligned box in percentage space — an edited image's per-bin
// [BOUNDmin/total, BOUNDmax/total] envelope, a binary image's exact
// normalized histogram as a degenerate point box — and every inner node
// holds the coordinate-wise union of its subtree's boxes. A range query
// descends only into nodes whose union box intersects the query region,
// admits whole subtrees whose union box is contained in it, and a nearest-
// neighbor search runs best-first branch-and-bound over node boxes.
//
// Concurrency contract: reads are lock-free. The tree publishes an
// immutable root through an atomic pointer; Snapshot captures it once and
// every traversal runs against that frozen version. Mutations (Bulk,
// Insert, Update, Delete, Rebuild) copy the touched root-to-leaf path,
// never modify a published node in place, and must be serialized by the
// caller — in core they all run under the database write lock. This shape
// is what lets a query instantiate candidates mid-traversal (which takes
// database locks) without any lock ordering against writers.
package stree

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Item is one indexed candidate: its id, its bound box in percentage space
// (Lo[d] ≤ Hi[d], both inclusive), and an opaque payload the caller uses
// for exact leaf decisions (core stores the integer bounds vector there).
type Item struct {
	ID     uint64
	Lo, Hi []float64
	Data   any
}

// node is one immutable tree node. Exactly one of children/items is
// non-nil; lo/hi is the coordinate-wise union of everything beneath and
// minID the smallest item id beneath, both set by computeBoxFrom*.
// Nodes are never mutated after being linked under a published root.
type node struct {
	lo, hi   []float64
	minID    uint64
	children []*node
	items    []*Item
}

func (n *node) leaf() bool { return n.children == nil }

// count returns the number of items in the subtree.
func (n *node) count() int {
	if n.leaf() {
		return len(n.items)
	}
	c := 0
	for _, ch := range n.children {
		c += ch.count()
	}
	return c
}

// Tree is the mutable handle: an atomic root plus writer-side bookkeeping.
type Tree struct {
	dims int
	cap  int // max children per inner node and items per leaf

	root atomic.Pointer[node]
	live atomic.Int64 // published item count
	// dirty counts structure-degrading mutations (deletes and updates)
	// since the last bulk load; NeedsRebuild trips once the debt is a
	// quarter of the live set. Inserts keep the tree correct but only
	// enlarge boxes, deletes leave underfull leaves — both erode pruning
	// quality without ever affecting correctness, which is why rebuilds
	// can be lazy.
	dirty atomic.Int64

	// byID locates each live item's box for containment-guided deletes and
	// is touched only by (caller-serialized) mutators.
	byID map[uint64]*Item
}

// New returns an empty tree over dims-dimensional boxes. cap is the node
// capacity (children per inner node, items per leaf); values below 4 are
// raised to 4.
func New(dims, cap int) *Tree {
	if cap < 4 {
		cap = 4
	}
	return &Tree{dims: dims, cap: cap, byID: make(map[uint64]*Item)}
}

// Dims returns the box dimensionality.
func (t *Tree) Dims() int { return t.dims }

// Len returns the number of live items. Safe to call concurrently with
// mutations (it reads an atomic).
func (t *Tree) Len() int { return int(t.live.Load()) }

// NeedsRebuild reports whether enough structural debt has accumulated that
// the next bulk load is worth paying for. Purely advisory: a tree past the
// threshold still answers every query correctly, just with weaker pruning.
func (t *Tree) NeedsRebuild() bool {
	d := t.dirty.Load()
	n := t.live.Load()
	return d >= 64 && d*4 >= n
}

// checkItem validates an item's box against the tree's dimensionality.
func (t *Tree) checkItem(it Item) error {
	if len(it.Lo) != t.dims || len(it.Hi) != t.dims {
		return fmt.Errorf("stree: item %d box has %d/%d dims, tree has %d", it.ID, len(it.Lo), len(it.Hi), t.dims)
	}
	for d := 0; d < t.dims; d++ {
		if it.Lo[d] > it.Hi[d] {
			return fmt.Errorf("stree: item %d dim %d has lo %v > hi %v", it.ID, d, it.Lo[d], it.Hi[d])
		}
	}
	return nil
}

// Bulk replaces the tree's contents with an STR-style bottom-balanced
// build over items, resetting the structural debt. Duplicate ids keep the
// last occurrence. The previous version stays valid for snapshots taken
// before the swap.
func (t *Tree) Bulk(items []Item) error {
	byID := make(map[uint64]*Item, len(items))
	for i := range items {
		if err := t.checkItem(items[i]); err != nil {
			return err
		}
		it := items[i] // copy: the tree owns its items
		byID[it.ID] = &it
	}
	t.byID = byID
	t.Rebuild()
	return nil
}

// Rebuild re-packs the items the tree already holds with the same STR-style
// build Bulk uses, resetting the structural debt. The item set and every
// box are unchanged, so the caller pays no recomputation. The previous
// version stays valid for snapshots taken before the swap. Caller
// serializes mutations.
func (t *Tree) Rebuild() {
	ptrs := make([]*Item, 0, len(t.byID))
	for _, it := range t.byID {
		ptrs = append(ptrs, it)
	}
	// Deterministic build regardless of map order.
	sort.Slice(ptrs, func(i, j int) bool { return ptrs[i].ID < ptrs[j].ID })
	var root *node
	if len(ptrs) > 0 {
		root = build(ptrs, t.dims, t.cap)
	}
	t.root.Store(root)
	t.live.Store(int64(len(ptrs)))
	t.dirty.Store(0)
}

// build recursively packs items into a balanced tree: sort by box center
// along the widest-spread dimension, cut into up to cap contiguous runs of
// near-equal size, recurse. Ties break by id, so the build is a pure
// function of the item set.
func build(items []*Item, dims, cap int) *node {
	if len(items) <= cap {
		n := &node{items: append([]*Item(nil), items...)}
		n.computeBoxFromItems(dims)
		return n
	}
	dim := widestDim(items, dims)
	sorted := append([]*Item(nil), items...)
	sort.Slice(sorted, func(i, j int) bool {
		ci := sorted[i].Lo[dim] + sorted[i].Hi[dim]
		cj := sorted[j].Lo[dim] + sorted[j].Hi[dim]
		if ci != cj {
			return ci < cj
		}
		return sorted[i].ID < sorted[j].ID
	})
	groups := cap
	if groups > len(sorted) {
		groups = len(sorted)
	}
	n := &node{children: make([]*node, 0, groups)}
	for g := 0; g < groups; g++ {
		start := g * len(sorted) / groups
		end := (g + 1) * len(sorted) / groups
		if start == end {
			continue
		}
		n.children = append(n.children, build(sorted[start:end], dims, cap))
	}
	n.computeBoxFromChildren(dims)
	return n
}

// widestDim picks the dimension with the largest spread of box centers.
func widestDim(items []*Item, dims int) int {
	best, bestSpread := 0, -1.0
	for d := 0; d < dims; d++ {
		lo, hi := items[0].Lo[d]+items[0].Hi[d], items[0].Lo[d]+items[0].Hi[d]
		for _, it := range items[1:] {
			c := it.Lo[d] + it.Hi[d]
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if spread := hi - lo; spread > bestSpread {
			best, bestSpread = d, spread
		}
	}
	return best
}

func (n *node) computeBoxFromItems(dims int) {
	n.minID = n.items[0].ID
	for _, it := range n.items[1:] {
		n.minID = min(n.minID, it.ID)
	}
	n.lo, n.hi = make([]float64, dims), make([]float64, dims)
	for d := 0; d < dims; d++ {
		n.lo[d], n.hi[d] = n.items[0].Lo[d], n.items[0].Hi[d]
		for _, it := range n.items[1:] {
			if it.Lo[d] < n.lo[d] {
				n.lo[d] = it.Lo[d]
			}
			if it.Hi[d] > n.hi[d] {
				n.hi[d] = it.Hi[d]
			}
		}
	}
}

func (n *node) computeBoxFromChildren(dims int) {
	n.minID = n.children[0].minID
	for _, ch := range n.children[1:] {
		n.minID = min(n.minID, ch.minID)
	}
	n.lo, n.hi = make([]float64, dims), make([]float64, dims)
	for d := 0; d < dims; d++ {
		n.lo[d], n.hi[d] = n.children[0].lo[d], n.children[0].hi[d]
		for _, ch := range n.children[1:] {
			if ch.lo[d] < n.lo[d] {
				n.lo[d] = ch.lo[d]
			}
			if ch.hi[d] > n.hi[d] {
				n.hi[d] = ch.hi[d]
			}
		}
	}
}

// Insert adds one item, path-copying from root to leaf and splitting on
// overflow. An id already present is replaced (same as Update). Caller
// serializes mutations.
func (t *Tree) Insert(it Item) error {
	if err := t.checkItem(it); err != nil {
		return err
	}
	if _, ok := t.byID[it.ID]; ok {
		if !t.delete(it.ID) {
			return fmt.Errorf("stree: id %d in byID but not in tree", it.ID)
		}
	}
	stored := it // copy
	t.byID[it.ID] = &stored
	root := t.root.Load()
	if root == nil {
		leafN := &node{items: []*Item{&stored}}
		leafN.computeBoxFromItems(t.dims)
		t.root.Store(leafN)
		t.live.Add(1)
		return nil
	}
	n1, n2 := t.insertInto(root, &stored)
	if n2 != nil {
		root = &node{children: []*node{n1, n2}}
		root.computeBoxFromChildren(t.dims)
	} else {
		root = n1
	}
	t.root.Store(root)
	t.live.Add(1)
	return nil
}

// insertInto returns the copied replacement for n after adding it, plus a
// second node when n had to split.
func (t *Tree) insertInto(n *node, it *Item) (*node, *node) {
	if n.leaf() {
		items := make([]*Item, 0, len(n.items)+1)
		items = append(items, n.items...)
		items = append(items, it)
		if len(items) <= t.cap {
			nn := &node{items: items}
			nn.computeBoxFromItems(t.dims)
			return nn, nil
		}
		left, right := splitItems(items, t.dims)
		ln := &node{items: left}
		ln.computeBoxFromItems(t.dims)
		rn := &node{items: right}
		rn.computeBoxFromItems(t.dims)
		return ln, rn
	}
	best := chooseSubtree(n.children, it)
	c1, c2 := t.insertInto(n.children[best], it)
	children := make([]*node, 0, len(n.children)+1)
	children = append(children, n.children...)
	children[best] = c1
	if c2 != nil {
		children = append(children, c2)
	}
	if len(children) <= t.cap {
		nn := &node{children: children}
		nn.computeBoxFromChildren(t.dims)
		return nn, nil
	}
	left, right := splitChildren(children, t.dims)
	ln := &node{children: left}
	ln.computeBoxFromChildren(t.dims)
	rn := &node{children: right}
	rn.computeBoxFromChildren(t.dims)
	return ln, rn
}

// chooseSubtree picks the child needing the least margin enlargement to
// absorb the item (margin, not volume: boxes in 64-dimensional percentage
// space have degenerate volumes). Ties go to the smaller current margin,
// then to the first child — all deterministic.
func chooseSubtree(children []*node, it *Item) int {
	best, bestEnl, bestMargin := 0, 0.0, 0.0
	for i, ch := range children {
		enl, margin := 0.0, 0.0
		for d := range ch.lo {
			lo, hi := ch.lo[d], ch.hi[d]
			margin += hi - lo
			if it.Lo[d] < lo {
				enl += lo - it.Lo[d]
			}
			if it.Hi[d] > hi {
				enl += it.Hi[d] - hi
			}
		}
		if i == 0 || enl < bestEnl || (enl == bestEnl && margin < bestMargin) {
			best, bestEnl, bestMargin = i, enl, margin
		}
	}
	return best
}

// splitItems splits an overflowing leaf's items at the median of the
// widest-spread center dimension.
func splitItems(items []*Item, dims int) ([]*Item, []*Item) {
	dim := widestDim(items, dims)
	sorted := append([]*Item(nil), items...)
	sort.Slice(sorted, func(i, j int) bool {
		ci := sorted[i].Lo[dim] + sorted[i].Hi[dim]
		cj := sorted[j].Lo[dim] + sorted[j].Hi[dim]
		if ci != cj {
			return ci < cj
		}
		return sorted[i].ID < sorted[j].ID
	})
	mid := len(sorted) / 2
	return sorted[:mid:mid], sorted[mid:]
}

// splitChildren does the same for an overflowing inner node, on child box
// centers.
func splitChildren(children []*node, dims int) ([]*node, []*node) {
	dim := 0
	bestSpread := -1.0
	for d := 0; d < dims; d++ {
		lo, hi := children[0].lo[d]+children[0].hi[d], children[0].lo[d]+children[0].hi[d]
		for _, ch := range children[1:] {
			c := ch.lo[d] + ch.hi[d]
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if spread := hi - lo; spread > bestSpread {
			dim, bestSpread = d, spread
		}
	}
	sorted := append([]*node(nil), children...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].lo[dim]+sorted[i].hi[dim] < sorted[j].lo[dim]+sorted[j].hi[dim]
	})
	mid := len(sorted) / 2
	return sorted[:mid:mid], sorted[mid:]
}

// Update replaces an item's box (same id), counting as structural debt.
// Caller serializes mutations.
func (t *Tree) Update(it Item) error {
	if err := t.Insert(it); err != nil {
		return err
	}
	t.dirty.Add(1)
	return nil
}

// Delete removes an item by id, reporting whether it was present. The
// delete path is copied and its union boxes recomputed tight; leaves are
// never merged (that is what rebuilds are for). Caller serializes
// mutations.
func (t *Tree) Delete(id uint64) bool {
	if !t.delete(id) {
		return false
	}
	t.dirty.Add(1)
	return true
}

// delete is Delete without the debt accounting (Insert-replace uses it).
func (t *Tree) delete(id uint64) bool {
	it, ok := t.byID[id]
	if !ok {
		return false
	}
	root := t.root.Load()
	if root == nil {
		return false
	}
	nn, removed := t.removeFrom(root, id, it)
	if !removed {
		return false
	}
	delete(t.byID, id)
	t.root.Store(nn) // nn may be nil (tree emptied)
	t.live.Add(-1)
	return true
}

// removeFrom returns the copied replacement for n without the item (nil if
// n emptied) and whether the item was found. Descent is containment-
// guided: only children whose box contains the item's box can hold it.
func (t *Tree) removeFrom(n *node, id uint64, it *Item) (*node, bool) {
	if n.leaf() {
		idx := -1
		for i, li := range n.items {
			if li.ID == id {
				idx = i
				break
			}
		}
		if idx < 0 {
			return n, false
		}
		if len(n.items) == 1 {
			return nil, true
		}
		items := make([]*Item, 0, len(n.items)-1)
		items = append(items, n.items[:idx]...)
		items = append(items, n.items[idx+1:]...)
		nn := &node{items: items}
		nn.computeBoxFromItems(t.dims)
		return nn, true
	}
	for i, ch := range n.children {
		if !containsBox(ch, it) {
			continue
		}
		cn, removed := t.removeFrom(ch, id, it)
		if !removed {
			continue
		}
		var children []*node
		if cn == nil {
			if len(n.children) == 1 {
				return nil, true
			}
			children = make([]*node, 0, len(n.children)-1)
			children = append(children, n.children[:i]...)
			children = append(children, n.children[i+1:]...)
		} else {
			children = make([]*node, len(n.children))
			copy(children, n.children)
			children[i] = cn
		}
		nn := &node{children: children}
		nn.computeBoxFromChildren(t.dims)
		return nn, true
	}
	return n, false
}

// containsBox reports whether the node's union box contains the item's box
// — the invariant every ancestor of a live item maintains.
func containsBox(n *node, it *Item) bool {
	for d := range n.lo {
		if it.Lo[d] < n.lo[d] || it.Hi[d] > n.hi[d] {
			return false
		}
	}
	return true
}
