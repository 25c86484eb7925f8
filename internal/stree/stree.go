// Package stree implements the signature tree (S-tree) behind the
// database's sublinear retrieval mode: a balanced, bulk-loaded tree over
// per-candidate histogram bound boxes, in the spirit of Le & Van's S-tree
// over binary color signatures. Every candidate contributes one
// axis-aligned box in percentage space — an edited image's per-bin
// [BOUNDmin/total, BOUNDmax/total] envelope, a binary image's exact
// normalized histogram as a degenerate point box — and every subtree is
// summarized by the coordinate-wise union of its boxes. A range query
// descends only into subtrees whose union box intersects the query region,
// admits whole subtrees whose union box is contained in it, and a nearest-
// neighbor search runs best-first branch-and-bound over union boxes.
//
// Layout. A bulk load packs full nodes: a subtree of height h holds up to
// cap^h items, so a node over n items gets ⌈n / cap^(h−1)⌉ children, and
// every leaf but the build's last holds cap items. Every node keeps its k
// entries as columns: their ids and their boxes dimension-major (entry i's
// bound in dimension d at lo[d·k+i] and hi[d·k+i]). A leaf's entries are
// its items, with a kind byte and a payload column beside; an inner node's
// entries are its children, each as the least id and the union box of
// everything beneath it. So one node's boxes are two contiguous blocks,
// and a traversal classifies or bounds all of them in one call. Those
// columns are the only copy of every box: Item.Lo and Item.Hi are what
// Bulk, Insert and Update copy in, and the tree keeps no reference to
// them; a subtree's union box lives only in its parent's columns (the
// root's is kept nowhere). Rebuilds, splits and containment-guided deletes
// read the columns. Traversals see boxes through one column-wise view
// (Boxes) and hand callers a whole Leaf.
//
// Concurrency contract: reads are lock-free. The tree publishes an
// immutable root through an atomic pointer; Snapshot captures it once and
// every traversal runs against that frozen version. Mutations (Bulk,
// Insert, Update, Delete, Rebuild) copy the touched root-to-leaf path,
// never modify a published node in place, and must be serialized by the
// caller — in core they all run under the database write lock. This shape
// is what lets a query instantiate candidates mid-traversal (which takes
// database locks) without any lock ordering against writers. The price is
// on the write side: a mutation copies the columns of every node on its
// path whole.
package stree

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
)

// Item is one candidate as Bulk, Insert and Update take it: its id, a kind
// byte the tree stores for the caller and never reads (core: binary,
// edited with bounds, universal box), its bound box in percentage space
// (Lo[d] ≤ Hi[d], both inclusive), and an opaque payload the caller uses
// for exact leaf decisions (core stores the integer bounds vector there).
// The tree copies the box into its leaf columns.
type Item struct {
	ID     uint64
	Kind   uint8
	Lo, Hi []float64
	Data   any
}

// Boxes is a read-only view of n boxes stored column-wise: box i's bounds
// in dimension d are Lo(d)[i] and Hi(d)[i]. A node's entries are a set of
// its length, and one entry a set of one strided through its node's
// columns.
type Boxes struct {
	lo, hi         []float64
	off, n, stride int
}

// Lo returns dimension d's lower bounds, box i's at index i.
func (b Boxes) Lo(d int) []float64 {
	i := b.off + d*b.stride
	return b.lo[i : i+b.n : i+b.n]
}

// Hi returns dimension d's upper bounds, box i's at index i.
func (b Boxes) Hi(d int) []float64 {
	i := b.off + d*b.stride
	return b.hi[i : i+b.n : i+b.n]
}

// at returns the first box's bounds in dimension d.
func (b Boxes) at(d int) (lo, hi float64) {
	i := b.off + d*b.stride
	return b.lo[i], b.hi[i]
}

// center returns twice the first box's center in dimension d.
func (b Boxes) center(d int) float64 {
	lo, hi := b.at(d)
	return lo + hi
}

// Leaf is a read-only view of one leaf's columns, valid for as long as the
// snapshot that reached it. An inner node keeps its children in the same
// columns, with no kinds or payloads.
type Leaf struct {
	ids   []uint64
	kinds []uint8
	data  []any
	// lo and hi hold the boxes dimension-major: entry i's bounds in
	// dimension d are lo[d*len(ids)+i] and hi[d*len(ids)+i].
	lo, hi []float64
}

// Len returns the number of items in the leaf.
func (l *Leaf) Len() int { return len(l.ids) }

// ID returns item i's id.
func (l *Leaf) ID(i int) uint64 { return l.ids[i] }

// IDs returns the id column, item i's at index i. The caller must not
// modify it.
func (l *Leaf) IDs() []uint64 { return l.ids }

// Kind returns item i's kind byte.
func (l *Leaf) Kind(i int) uint8 { return l.kinds[i] }

// Data returns item i's payload.
func (l *Leaf) Data(i int) any { return l.data[i] }

// Boxes returns the boxes of all the leaf's items.
func (l *Leaf) Boxes() Boxes {
	k := len(l.ids)
	return Boxes{lo: l.lo, hi: l.hi, n: k, stride: k}
}

// Box returns item i's box, a set of one.
func (l *Leaf) Box(i int) Boxes {
	return Boxes{lo: l.lo, hi: l.hi, off: i, n: 1, stride: len(l.ids)}
}

// ref is one entry in transit between nodes: an item's column values, or
// a child with the least id beneath it, with its box viewed where it
// currently lives (an Item's slices, a node's columns, or a child's
// freshly computed union).
type ref struct {
	id    uint64
	kind  uint8
	data  any
	child *node // nil for an item
	box   Boxes // a set of one
}

// node is one immutable tree node: its entries as columns (cols), and for
// an inner node the children those entries describe. Nodes are never
// mutated after being linked under a published root.
type node struct {
	children []*node // nil for a leaf
	cols     Leaf
}

func (n *node) leaf() bool { return n.children == nil }

// len returns the number of entries.
func (n *node) len() int { return len(n.cols.ids) }

// ref returns entry i as a ref into the node's columns.
func (n *node) ref(i int) ref {
	r := ref{id: n.cols.ids[i], box: n.cols.Box(i)}
	if n.leaf() {
		r.kind, r.data = n.cols.kinds[i], n.cols.data[i]
	} else {
		r.child = n.children[i]
	}
	return r
}

// refs returns every entry as refs, with room for one more.
func (n *node) refs() []ref {
	rs := make([]ref, n.len(), n.len()+1)
	for i := range rs {
		rs[i] = n.ref(i)
	}
	return rs
}

// count returns the number of items in the subtree.
func (n *node) count() int {
	if n.leaf() {
		return n.len()
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

	// byID maps each live item to the published leaf holding it, whose
	// columns give the box a containment-guided delete descends by. Every
	// leaf the writer makes re-registers its items; it is touched only by
	// (caller-serialized) mutators.
	byID map[uint64]*node
}

// New returns an empty tree over dims-dimensional boxes. cap is the node
// capacity (children per inner node, items per leaf); values below 4 are
// raised to 4.
func New(dims, cap int) *Tree {
	if cap < 4 {
		cap = 4
	}
	return &Tree{dims: dims, cap: cap, byID: make(map[uint64]*node)}
}

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

// itemRef views an item's own slices as a ref.
func itemRef(it Item) ref {
	return ref{id: it.ID, kind: it.Kind, data: it.Data, box: Boxes{lo: it.Lo, hi: it.Hi, n: 1, stride: 1}}
}

// Bulk replaces the tree's contents with a fully packed build over items,
// resetting the structural debt. Duplicate ids keep the last occurrence.
// The previous version stays valid for snapshots taken before the swap.
func (t *Tree) Bulk(items []Item) error {
	last := make(map[uint64]int, len(items))
	for i := range items {
		if err := t.checkItem(items[i]); err != nil {
			return err
		}
		last[items[i].ID] = i
	}
	refs := make([]ref, 0, len(last))
	for i := range items {
		if last[items[i].ID] == i {
			refs = append(refs, itemRef(items[i]))
		}
	}
	t.pack(refs)
	return nil
}

// Rebuild re-packs the items the tree already holds with the same build
// Bulk uses, resetting the structural debt. The item set and every box are
// read from the leaf columns, so the caller pays no recomputation. The
// previous version stays valid for snapshots taken before the swap. Caller
// serializes mutations.
func (t *Tree) Rebuild() {
	refs := make([]ref, 0, t.Len())
	var gather func(n *node)
	gather = func(n *node) {
		if n.leaf() {
			for i := range n.cols.ids {
				refs = append(refs, n.ref(i))
			}
			return
		}
		for _, ch := range n.children {
			gather(ch)
		}
	}
	if root := t.root.Load(); root != nil {
		gather(root)
	}
	t.pack(refs)
}

// pack publishes a fresh build over refs (distinct ids) and resets the
// writer bookkeeping.
func (t *Tree) pack(refs []ref) {
	// The build is a pure function of the item set, whatever order the
	// caller or the old tree listed it in.
	slices.SortFunc(refs, func(a, b ref) int { return cmp.Compare(a.id, b.id) })
	t.byID = make(map[uint64]*node, len(refs))
	var root *node
	if len(refs) > 0 {
		root = t.build(refs)
	}
	t.root.Store(root)
	t.live.Store(int64(len(refs)))
	t.dirty.Store(0)
}

// build packs refs into full nodes. The subtree's height h is the least
// with cap^h ≥ n; the node gets ⌈n / cap^(h−1)⌉ children, cut as contiguous
// runs of refs in sortAlong order, and each run recurses. The runs share
// the subtree's ⌈n/cap⌉ leaves as evenly as whole leaves allow, so every
// run starts on a multiple of cap: all leaves but the build's last are
// full, and every run is tall enough that all leaves sit at the same depth.
func (t *Tree) build(refs []ref) *node {
	n := len(refs)
	if n <= t.cap {
		return t.newNode(refs)
	}
	span := t.cap // cap^(h-1)
	for span*t.cap < n {
		span *= t.cap
	}
	groups := (n + span - 1) / span
	leaves := (n + t.cap - 1) / t.cap
	cut := func(g int) int { return min(n, g*leaves/groups*t.cap) }
	sortAlong(refs, t.dims)
	children := make([]ref, groups)
	for g := range children {
		children[g] = t.entry(t.build(refs[cut(g):cut(g+1)]))
	}
	return t.newNode(children)
}

// sortAlong sorts refs by box center along the dimension where the centers
// spread widest, ties by id, so a cut of the order is a pure function of
// the item set.
func sortAlong(refs []ref, dims int) {
	dim := widestDim(refs, dims)
	// Sort small keys, not the refs, then move each ref once: follow every
	// cycle of the permutation, filling each slot from the one it names.
	type key struct {
		center float64
		id     uint64
		from   int
	}
	keys := make([]key, len(refs))
	for i, r := range refs {
		keys[i] = key{r.box.center(dim), r.id, i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.center, b.center); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	for start := range keys {
		if keys[start].from < 0 {
			continue
		}
		held := refs[start]
		for at := start; ; {
			from := keys[at].from
			keys[at].from = -1
			if from == start {
				refs[at] = held
				break
			}
			refs[at], at = refs[from], from
		}
	}
}

// widestDim picks the dimension with the largest spread of box centers.
// It reads each box once, front to back.
func widestDim(refs []ref, dims int) int {
	lo, hi := make([]float64, dims), make([]float64, dims)
	for d := range lo {
		lo[d] = refs[0].box.center(d)
		hi[d] = lo[d]
	}
	for _, r := range refs[1:] {
		for d := range lo {
			c := r.box.center(d)
			if c < lo[d] {
				lo[d] = c
			}
			if c > hi[d] {
				hi[d] = c
			}
		}
	}
	best, bestSpread := 0, -1.0
	for d := range lo {
		if spread := hi[d] - lo[d]; spread > bestSpread {
			best, bestSpread = d, spread
		}
	}
	return best
}

// newNode copies refs into a fresh node's columns: items make a leaf, and
// registers them in byID; children make an inner node.
func (t *Tree) newNode(refs []ref) *node {
	k, dims := len(refs), t.dims
	n := &node{}
	c := &n.cols
	c.ids = make([]uint64, k)
	boxes := make([]float64, 2*dims*k)
	c.lo, c.hi = boxes[:dims*k:dims*k], boxes[dims*k:]
	inner := refs[0].child != nil
	if inner {
		n.children = make([]*node, k)
	} else {
		c.kinds, c.data = make([]uint8, k), make([]any, k)
	}
	for i, r := range refs {
		c.ids[i] = r.id
		if inner {
			n.children[i] = r.child
		} else {
			c.kinds[i], c.data[i] = r.kind, r.data
			t.byID[r.id] = n
		}
	}
	// Refs that view consecutive entries of one node's columns — most of
	// them, on a path copy — are copied a run at a time, dimension by
	// dimension, so the new columns are written in order.
	for i := 0; i < k; {
		j, b := i+1, refs[i].box
		for j < k && follows(refs[j].box, refs[j-1].box) {
			j++
		}
		for d := 0; d < dims; d++ {
			dst, src := c.lo[d*k+i:d*k+j], b.off+d*b.stride
			for m := range dst {
				dst[m], c.hi[d*k+i+m] = b.lo[src+m], b.hi[src+m]
			}
		}
		i = j
	}
	return n
}

// follows reports whether box b is the entry right after prev in the same
// node's columns.
func follows(b, prev Boxes) bool {
	return b.off == prev.off+1 && b.stride == prev.stride &&
		len(b.lo) > 0 && len(prev.lo) > 0 && &b.lo[0] == &prev.lo[0]
}

// entry makes the ref a parent keeps for child n: the least id beneath it
// and the union of its entries' boxes, computed from its columns.
func (t *Tree) entry(n *node) ref {
	dims := t.dims
	b := make([]float64, 2*dims)
	all := n.cols.Boxes()
	for d := 0; d < dims; d++ {
		b[d], b[dims+d] = spanOf(all.Lo(d), all.Hi(d))
	}
	return ref{id: slices.Min(n.cols.ids), child: n, box: Boxes{lo: b[:dims:dims], hi: b[dims:], n: 1, stride: 1}}
}

// spanOf returns the least of los and the greatest of his.
func spanOf(los, his []float64) (lo, hi float64) {
	lo, hi = los[0], his[0]
	for _, v := range los[1:] {
		if v < lo {
			lo = v
		}
	}
	for _, v := range his[1:] {
		if v > hi {
			hi = v
		}
	}
	return lo, hi
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
	r := itemRef(it)
	root := t.root.Load()
	if root == nil {
		root = t.newNode([]ref{r})
	} else if n1, n2 := t.insertInto(root, r); n2 != nil {
		root = t.newNode([]ref{t.entry(n1), t.entry(n2)})
	} else {
		root = n1
	}
	t.root.Store(root)
	t.live.Add(1)
	return nil
}

// insertInto returns the copied replacement for n after adding r beneath
// it, plus a second node when n had to split. Leaves and inner nodes
// overflow alike: their entries are split at the median of the sortAlong
// order.
func (t *Tree) insertInto(n *node, r ref) (*node, *node) {
	refs := n.refs()
	if !n.leaf() {
		best := chooseSubtree(n, r.box, t.dims)
		c1, c2 := t.insertInto(n.children[best], r)
		refs[best] = t.entry(c1)
		if c2 == nil {
			return t.newNode(refs), nil
		}
		r = t.entry(c2)
	}
	refs = append(refs, r)
	if len(refs) <= t.cap {
		return t.newNode(refs), nil
	}
	sortAlong(refs, t.dims)
	mid := len(refs) / 2
	return t.newNode(refs[:mid:mid]), t.newNode(refs[mid:])
}

// chooseSubtree picks the child of n needing the least margin enlargement
// to absorb the box (margin, not volume: boxes in 64-dimensional
// percentage space have degenerate volumes). Ties go to the smaller
// current margin, then to the first child — all deterministic. It reads
// n's columns in order, one dimension at a time.
func chooseSubtree(n *node, b Boxes, dims int) int {
	k := n.len()
	sums := make([]float64, 2*k)
	enl, margin := sums[:k], sums[k:]
	all := n.cols.Boxes()
	for d := 0; d < dims; d++ {
		los, his := all.Lo(d), all.Hi(d)
		blo, bhi := b.at(d)
		for i, lo := range los {
			hi := his[i]
			margin[i] += hi - lo
			if blo < lo {
				enl[i] += lo - blo
			}
			if bhi > hi {
				enl[i] += bhi - hi
			}
		}
	}
	best := 0
	for i := 1; i < k; i++ {
		if enl[i] < enl[best] || (enl[i] == enl[best] && margin[i] < margin[best]) {
			best = i
		}
	}
	return best
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
	lf, ok := t.byID[id]
	if !ok {
		return false
	}
	root := t.root.Load()
	i := slices.Index(lf.cols.ids, id)
	if root == nil || i < 0 {
		return false
	}
	nn, removed := t.removeFrom(root, lf, i)
	if !removed {
		return false
	}
	delete(t.byID, id)
	t.root.Store(nn) // nn may be nil (tree emptied)
	t.live.Add(-1)
	return true
}

// removeFrom returns the copied replacement for n without item i of leaf
// lf (nil if n emptied) and whether the item was found. Descent is
// containment-guided: only children whose union box, read from n's
// columns, contains the item's box, read from lf's, can hold it.
func (t *Tree) removeFrom(n *node, lf *node, i int) (*node, bool) {
	if n.leaf() {
		if n != lf {
			return n, false
		}
		if n.len() == 1 {
			return nil, true
		}
		return t.newNode(slices.Delete(n.refs(), i, i+1)), true
	}
	b := lf.cols.Box(i)
	for ci, ch := range n.children {
		if !containsBox(n.cols.Box(ci), b, t.dims) {
			continue
		}
		cn, removed := t.removeFrom(ch, lf, i)
		if !removed {
			continue
		}
		refs := n.refs()
		if cn != nil {
			refs[ci] = t.entry(cn)
		} else if refs = slices.Delete(refs, ci, ci+1); len(refs) == 0 {
			return nil, true
		}
		return t.newNode(refs), true
	}
	return n, false
}

// containsBox reports whether the union box outer contains b — the
// invariant every ancestor of a live item maintains.
func containsBox(outer, b Boxes, dims int) bool {
	for d := 0; d < dims; d++ {
		olo, ohi := outer.at(d)
		if lo, hi := b.at(d); lo < olo || hi > ohi {
			return false
		}
	}
	return true
}
