package stree

import "container/heap"

// Snapshot is a frozen, immutable version of the tree. Taking one is a
// single atomic load; traversals over it are wait-free with respect to
// writers and always see the exact item set that was published at capture
// time (objects deleted afterwards still appear — the read-committed
// contract core documents for the indexed mode).
type Snapshot struct {
	root *node
}

// Snapshot captures the current published version.
func (t *Tree) Snapshot() Snapshot { return Snapshot{root: t.root.Load()} }

// Len returns the snapshot's item count (walks the version; test helper).
func (s Snapshot) Len() int {
	if s.root == nil {
		return 0
	}
	return s.root.count()
}

// Overlap classifies a box against a query region.
type Overlap uint8

const (
	// OverlapNone: the box cannot intersect the region — prune.
	OverlapNone Overlap = iota
	// OverlapPartial: the box intersects but is not contained — descend
	// (nodes) or decide exactly (items).
	OverlapPartial
	// OverlapFull: the box is contained in the region — admit the whole
	// subtree without further checks.
	OverlapFull
)

// VisitStats counts the work one traversal did.
type VisitStats struct {
	// NodesVisited is how many node boxes were classified.
	NodesVisited int64
	// LeafChecks is how many item boxes were classified individually.
	LeafChecks int64
	// SubtreeAdmitted is how many items were admitted through a fully
	// contained ancestor, without an individual check.
	SubtreeAdmitted int64
}

// Visit walks the snapshot guided by classify over union boxes: None
// subtrees are pruned, Full subtrees admit every item beneath without
// per-item work, Partial subtrees descend. In Partial leaves each item box
// is classified itself; non-None items reach onItem with their verdict
// (OverlapFull = proven in by geometry alone, OverlapPartial = the caller
// must decide exactly). Items under a Full node reach onItem with
// OverlapFull. classify must be conservative: it may return Partial
// instead of None/Full, never the reverse. A non-nil error from onItem
// aborts the walk.
func (s Snapshot) Visit(classify func(lo, hi []float64) Overlap, onItem func(it *Item, ov Overlap) error, st *VisitStats) error {
	if s.root == nil {
		return nil
	}
	return s.visit(s.root, classify, onItem, st)
}

func (s Snapshot) visit(n *node, classify func(lo, hi []float64) Overlap, onItem func(it *Item, ov Overlap) error, st *VisitStats) error {
	st.NodesVisited++
	switch classify(n.lo, n.hi) {
	case OverlapNone:
		return nil
	case OverlapFull:
		return s.admitAll(n, onItem, st)
	case OverlapPartial:
		// fall through to descend
	default:
		// classify is caller code; treat anything unexpected as Partial,
		// the conservative verdict.
	}
	if n.leaf() {
		for _, it := range n.items {
			st.LeafChecks++
			ov := classify(it.Lo, it.Hi)
			if ov == OverlapNone {
				continue
			}
			if err := onItem(it, ov); err != nil {
				return err
			}
		}
		return nil
	}
	for _, ch := range n.children {
		if err := s.visit(ch, classify, onItem, st); err != nil {
			return err
		}
	}
	return nil
}

// admitAll delivers every item under n as OverlapFull.
func (s Snapshot) admitAll(n *node, onItem func(it *Item, ov Overlap) error, st *VisitStats) error {
	if n.leaf() {
		for _, it := range n.items {
			st.SubtreeAdmitted++
			if err := onItem(it, OverlapFull); err != nil {
				return err
			}
		}
		return nil
	}
	for _, ch := range n.children {
		if err := s.admitAll(ch, onItem, st); err != nil {
			return err
		}
	}
	return nil
}

// bfEntry is one prioritized subtree in a best-first search, ranked by
// (lb, minID); seq breaks the remaining ties by insertion order, making the
// traversal fully deterministic.
type bfEntry struct {
	lb   float64
	seq  int
	node *node
}

type bfHeap []bfEntry

func (h bfHeap) Len() int { return len(h) }
func (h bfHeap) Less(i, j int) bool {
	if h[i].lb != h[j].lb {
		return h[i].lb < h[j].lb
	}
	if h[i].node.minID != h[j].node.minID {
		return h[i].node.minID < h[j].node.minID
	}
	return h[i].seq < h[j].seq
}
func (h bfHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *bfHeap) Push(x interface{}) { *h = append(*h, x.(bfEntry)) }
func (h *bfHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// BestFirst runs branch-and-bound over the snapshot in the lexicographic
// (lb, id) order a nearest-neighbor answer is ranked by. A subtree is
// ranked by (nodeLB of its box, smallest item id beneath it); nodeLB must be
// a lower bound on any item's distance beneath the node and monotone (a
// subset box never has a smaller bound), so no item beneath a node ranks
// better than the node's own pair. Subtrees are expanded in ascending pair
// order; a child that prune rejects is never queued, and the first popped
// subtree that prune rejects ends the search.
//
// prune must be monotone in the (lb, id) order: if it rejects (l, i) it
// rejects every (l', i') ≥ (l, i). It may tighten as onItem records exact
// distances; a stale (looser) verdict only delays the stop, never skips a
// qualifying item. Under that contract a rejected subtree holds no answer,
// and everything still queued behind a rejected head is rejected too. Items
// in reached leaves are passed to onItem, which does its own item-level
// bounding and scoring. A non-nil error aborts the search.
func (s Snapshot) BestFirst(nodeLB func(lo, hi []float64) float64, prune func(lb float64, minID uint64) bool, onItem func(it *Item) error, st *VisitStats) error {
	if s.root == nil {
		return nil
	}
	seq := 0
	h := &bfHeap{}
	heap.Push(h, bfEntry{lb: nodeLB(s.root.lo, s.root.hi), seq: seq, node: s.root})
	for h.Len() > 0 {
		e := heap.Pop(h).(bfEntry)
		st.NodesVisited++
		if prune(e.lb, e.node.minID) {
			// The heap ascends in (lb, minID): everything still queued ranks
			// no better, so nothing left can enter the answer.
			return nil
		}
		if e.node.leaf() {
			for _, it := range e.node.items {
				st.LeafChecks++
				if err := onItem(it); err != nil {
					return err
				}
			}
			continue
		}
		for _, ch := range e.node.children {
			lb := nodeLB(ch.lo, ch.hi)
			if prune(lb, ch.minID) {
				continue // already provably outside; skip the queue
			}
			seq++
			heap.Push(h, bfEntry{lb: lb, seq: seq, node: ch})
		}
	}
	return nil
}
