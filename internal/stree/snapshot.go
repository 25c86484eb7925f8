package stree

import (
	"math"
	"slices"
)

// Snapshot is a frozen, immutable version of the tree. Taking one is a
// single atomic load; traversals over it are wait-free with respect to
// writers and always see the exact item set that was published at capture
// time (objects deleted afterwards still appear — the read-committed
// contract core documents for the indexed mode).
type Snapshot struct {
	root *node
	cap  int // the most boxes one classify call is given
}

// Snapshot captures the current published version.
func (t *Tree) Snapshot() Snapshot { return Snapshot{root: t.root.Load(), cap: t.cap} }

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
	// NodesVisited is how many nodes were reached: the root, whose box is
	// kept nowhere and never tested, and every child whose union box was
	// classified or bounded — an inner node's children a set at a time.
	NodesVisited int64
	// LeafChecks is how many item boxes were classified or bounded
	// individually.
	LeafChecks int64
	// SubtreeAdmitted is how many items were admitted through a fully
	// contained ancestor, without an individual check.
	SubtreeAdmitted int64
}

// Visit walks the snapshot guided by classify: None subtrees are pruned,
// Full subtrees admit every item beneath without per-item work, Partial
// subtrees descend. classify fills out[i] with box i's verdict for all the
// entries of one node at once — an inner node's children's union boxes, a
// leaf's item boxes; the root is descended unclassified. A leaf is handed
// to onLeaf whole, in one call: right after classify judged its items,
// with those verdicts (verdicts[i] is item i's: None = out, Full = proven
// in by geometry alone, Partial = the caller must decide exactly), unless
// every one is None; or, under a Full ancestor, unclassified, with nil
// verdicts — every item in. verdicts is reused for the next leaf. classify
// must be conservative: it may return Partial instead of None/Full, never
// the reverse. A non-nil error from onLeaf aborts the walk.
func (s Snapshot) Visit(classify func(b Boxes, out []Overlap), onLeaf func(l *Leaf, verdicts []Overlap) error, st *VisitStats) error {
	if s.root == nil {
		return nil
	}
	depth := 1
	for n := s.root; !n.leaf(); n = n.children[0] {
		depth++
	}
	st.NodesVisited++
	return visit(s.root, classify, onLeaf, st, make([]Overlap, depth*s.cap))
}

// visit is Visit below n, whose own box was not None. out holds n's
// verdicts, then room for the levels beneath; every leaf sits at the same
// depth, so depth·cap verdicts always suffice.
func visit(n *node, classify func(b Boxes, out []Overlap), onLeaf func(l *Leaf, verdicts []Overlap) error, st *VisitStats, out []Overlap) error {
	k := n.len()
	verdicts, below := out[:k], out[k:]
	classify(n.cols.Boxes(), verdicts)
	if n.leaf() {
		st.LeafChecks += int64(k)
		for _, ov := range verdicts {
			if ov != OverlapNone {
				return onLeaf(&n.cols, verdicts)
			}
		}
		return nil
	}
	st.NodesVisited += int64(k)
	for i, ov := range verdicts {
		var err error
		switch ov {
		case OverlapNone:
			continue
		case OverlapFull:
			err = admitAll(n.children[i], onLeaf, st)
		default:
			// Partial, or anything unexpected from caller code: descend,
			// the conservative reading.
			err = visit(n.children[i], classify, onLeaf, st, below)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// admitAll hands every leaf under n to onLeaf with nil verdicts: every
// item in.
func admitAll(n *node, onLeaf func(l *Leaf, verdicts []Overlap) error, st *VisitStats) error {
	if n.leaf() {
		st.SubtreeAdmitted += int64(n.len())
		return onLeaf(&n.cols, nil)
	}
	for _, ch := range n.children {
		if err := admitAll(ch, onLeaf, st); err != nil {
			return err
		}
	}
	return nil
}

// bfEntry is one prioritized subtree in a best-first search, ranked by
// (lb, minID); seq breaks the remaining ties by insertion order, making the
// traversal fully deterministic.
type bfEntry struct {
	lb    float64
	minID uint64
	seq   int
	node  *node
}

// bfHeap is a binary min-heap of bfEntry in (lb, minID, seq) order, typed so
// that a push boxes nothing.
type bfHeap []bfEntry

func (h bfHeap) less(i, j int) bool {
	if h[i].lb != h[j].lb {
		return h[i].lb < h[j].lb
	}
	if h[i].minID != h[j].minID {
		return h[i].minID < h[j].minID
	}
	return h[i].seq < h[j].seq
}

func (h *bfHeap) push(e bfEntry) {
	*h = append(*h, e)
	for j := len(*h) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			break
		}
		(*h)[i], (*h)[j] = (*h)[j], (*h)[i]
		j = i
	}
}

func (h *bfHeap) pop() bfEntry {
	old := *h
	n := len(old) - 1
	e := old[0]
	old[0] = old[n]
	*h = old[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		old[i], old[j] = old[j], old[i]
		i = j
	}
	return e
}

// BestFirst runs branch-and-bound over the snapshot in the lexicographic
// (lb, id) order a nearest-neighbor answer is ranked by. bound fills out
// with a lower bound for each box sel[j] of b, and returns it; it is given
// the entries of one node at a time — an inner node's children's union
// boxes, then a reached leaf's item boxes — and must not modify b or keep
// out. A subtree is ranked by (its union box's bound, smallest item id
// beneath it); bound must be a lower bound on any item's distance within
// the box and monotone (a subset box never has a smaller bound), so no
// item beneath a subtree ranks better than the subtree's own pair. The
// root, whose box is kept nowhere, ranks at −∞. Subtrees are expanded in
// ascending pair order; a child that prune rejects is never queued, and
// the first popped subtree that prune rejects ends the search.
//
// prune must be monotone in the (lb, id) order: if it rejects (l, i) it
// rejects every (l', i') ≥ (l, i). It may tighten as onLeaf records exact
// distances; a stale (looser) verdict only delays the stop, never skips a
// qualifying item. Under that contract a rejected subtree holds no answer,
// and everything still queued behind a rejected head is rejected too. The
// same holds inside a reached leaf: an item whose (leaf bound, own id)
// pair prune rejects is out without its box being read. The rest — sel,
// ascending indices into the leaf, one leaf check each — are bounded, and
// go to onLeaf with their bounds (lbs[j] is item sel[j]'s), which does its
// own item-level scoring; sel and lbs are reused for the next leaf. A
// non-nil error aborts the search.
func (s Snapshot) BestFirst(bound func(b Boxes, sel []int, out []float64) []float64, prune func(lb float64, minID uint64) bool, onLeaf func(l *Leaf, sel []int, lbs []float64) error, st *VisitStats) error {
	if s.root == nil {
		return nil
	}
	all, sel := make([]int, s.cap), make([]int, 0, s.cap)
	for i := range all {
		all[i] = i
	}
	lbs := make([]float64, 0, s.cap)
	seq := 0
	var h bfHeap
	st.NodesVisited++
	h.push(bfEntry{lb: math.Inf(-1), minID: slices.Min(s.root.cols.ids), seq: seq, node: s.root})
	for len(h) > 0 {
		e := h.pop()
		if prune(e.lb, e.minID) {
			// The heap ascends in (lb, minID): everything still queued ranks
			// no better, so nothing left can enter the answer.
			return nil
		}
		n := e.node
		if n.leaf() {
			sel = sel[:0]
			for i, id := range n.cols.ids {
				if !prune(e.lb, id) {
					sel = append(sel, i)
				}
			}
			st.LeafChecks += int64(len(sel))
			lbs = bound(n.cols.Boxes(), sel, lbs)
			if err := onLeaf(&n.cols, sel, lbs); err != nil {
				return err
			}
			continue
		}
		st.NodesVisited += int64(n.len())
		lbs = bound(n.cols.Boxes(), all[:n.len()], lbs)
		for i, lb := range lbs {
			minID := n.cols.ids[i]
			if prune(lb, minID) {
				continue // already provably outside; skip the queue
			}
			seq++
			h.push(bfEntry{lb: lb, minID: minID, seq: seq, node: n.children[i]})
		}
	}
	return nil
}
