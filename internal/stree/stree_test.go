package stree

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// randItem builds a random box in [0,1]^dims; roughly half are degenerate
// point boxes, like binary histograms in core.
func randItem(rng *rand.Rand, id uint64, dims int) Item {
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	for d := 0; d < dims; d++ {
		a := rng.Float64()
		if rng.Intn(2) == 0 {
			lo[d], hi[d] = a, a
		} else {
			b := a + rng.Float64()*(1-a)
			lo[d], hi[d] = a, b
		}
	}
	return Item{ID: id, Kind: uint8(id % 3), Lo: lo, Hi: hi, Data: id}
}

// bounds copies item i's box out of its leaf's columns.
func bounds(l *Leaf, i, dims int) (lo, hi []float64) { return vectors(l.Boxes(), i, dims) }

// vectors copies box i of b out as two vectors.
func vectors(b Boxes, i, dims int) (lo, hi []float64) {
	lo, hi = make([]float64, dims), make([]float64, dims)
	for d := range lo {
		lo[d], hi[d] = b.Lo(d)[i], b.Hi(d)[i]
	}
	return lo, hi
}

// slabClassify classifies against "box intersects [qmin,qmax] in dim" —
// the single-bin range query shape.
func slabClassify(dim int, qmin, qmax float64) func(Boxes, []Overlap) {
	return func(b Boxes, out []Overlap) {
		lo, hi := b.Lo(dim), b.Hi(dim)
		for i := range out {
			switch {
			case lo[i] > qmax || hi[i] < qmin:
				out[i] = OverlapNone
			case lo[i] >= qmin && hi[i] <= qmax:
				out[i] = OverlapFull
			default:
				out[i] = OverlapPartial
			}
		}
	}
}

// collect runs a slab query over the snapshot and returns the sorted ids.
// It holds Visit to its per-leaf contract: a leaf arrives once, whole,
// with a verdict per item of which not all are None, or with nil verdicts
// — and then it counts as admitted under a Full ancestor.
func collect(t *testing.T, s Snapshot, dim int, qmin, qmax float64) []uint64 {
	t.Helper()
	var ids []uint64
	var st VisitStats
	leaves := map[*Leaf]bool{}
	var admitted int64
	err := s.Visit(slabClassify(dim, qmin, qmax), func(l *Leaf, verdicts []Overlap) error {
		if leaves[l] {
			return fmt.Errorf("leaf of %v delivered twice", l.IDs())
		}
		leaves[l] = true
		if verdicts == nil {
			admitted += int64(l.Len())
		} else if len(verdicts) != l.Len() || !slices.ContainsFunc(verdicts, func(ov Overlap) bool { return ov != OverlapNone }) {
			return fmt.Errorf("leaf of %v delivered with verdicts %v", l.IDs(), verdicts)
		}
		for i, id := range l.IDs() {
			if verdicts == nil || verdicts[i] != OverlapNone {
				ids = append(ids, id)
			}
		}
		return nil
	}, &st)
	if err != nil {
		t.Fatalf("visit: %v", err)
	}
	if admitted != st.SubtreeAdmitted {
		t.Fatalf("%d items arrived unclassified, %d counted admitted", admitted, st.SubtreeAdmitted)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// brute answers the same query by linear scan over the item set.
func brute(items map[uint64]Item, dim int, qmin, qmax float64) []uint64 {
	var ids []uint64
	for id, it := range items {
		if it.Lo[dim] <= qmax && it.Hi[dim] >= qmin {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func sameIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkInvariants fails the test on any structural invariant invariantErr
// checks.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	if err := invariantErr(tr, nil); err != nil {
		t.Fatal(err)
	}
}

// invariantErr walks the published tree and reports the first broken
// invariant: no node is empty or holds more than cap entries; every leaf
// sits at the same depth; an inner node's columns hold, for each child,
// the exact union of the boxes beneath it and the smallest id beneath it,
// bit for bit; byID points every item at the leaf holding it; Len counts
// the items. With want non-nil, the leaf columns must also hold exactly
// want's items — ids, kinds, payloads and boxes, bit for bit.
func invariantErr(tr *Tree, want map[uint64]Item) error {
	seen, leafDepth := 0, -1
	// walk checks the subtree under n and returns its union box and least id.
	var walk func(n *node, depth int) (lo, hi []float64, least uint64, err error)
	walk = func(n *node, depth int) (lo, hi []float64, least uint64, err error) {
		k := n.len()
		if k == 0 || k > tr.cap {
			return nil, nil, 0, fmt.Errorf("node holds %d entries, cap %d", k, tr.cap)
		}
		c := &n.cols
		if len(c.lo) != k*tr.dims || len(c.hi) != k*tr.dims {
			return nil, nil, 0, fmt.Errorf("node of %d entries has %d/%d bounds", k, len(c.lo), len(c.hi))
		}
		lo, hi = vectors(c.Boxes(), 0, tr.dims)
		for i := 1; i < k; i++ {
			for d := range lo {
				lo[d], hi[d] = min(lo[d], c.Boxes().Lo(d)[i]), max(hi[d], c.Boxes().Hi(d)[i])
			}
		}
		least = slices.Min(c.ids)
		if n.leaf() {
			if leafDepth < 0 {
				leafDepth = depth
			}
			if depth != leafDepth {
				return nil, nil, 0, fmt.Errorf("leaves at depths %d and %d", leafDepth, depth)
			}
			if len(c.kinds) != k || len(c.data) != k {
				return nil, nil, 0, fmt.Errorf("leaf of %d items has %d kinds, %d payloads", k, len(c.kinds), len(c.data))
			}
			for i := 0; i < k; i++ {
				id := c.ID(i)
				seen++
				if tr.byID[id] != n {
					return nil, nil, 0, fmt.Errorf("byID does not point item %d at its leaf", id)
				}
				if want == nil {
					continue
				}
				it, ok := want[id]
				if !ok {
					return nil, nil, 0, fmt.Errorf("leaf holds item %d, which was never put in or was removed", id)
				}
				if c.Kind(i) != it.Kind || c.Data(i) != it.Data {
					return nil, nil, 0, fmt.Errorf("item %d: leaf has kind %d payload %v, put in %d %v", id, c.Kind(i), c.Data(i), it.Kind, it.Data)
				}
				for d := 0; d < tr.dims; d++ {
					blo, bhi := c.Box(i).at(d)
					if math.Float64bits(blo) != math.Float64bits(it.Lo[d]) || math.Float64bits(bhi) != math.Float64bits(it.Hi[d]) ||
						c.Boxes().Lo(d)[i] != it.Lo[d] || c.Boxes().Hi(d)[i] != it.Hi[d] {
						return nil, nil, 0, fmt.Errorf("item %d dim %d: leaf box [%v,%v], put in [%v,%v]", id, d, blo, bhi, it.Lo[d], it.Hi[d])
					}
				}
			}
			return lo, hi, least, nil
		}
		if len(n.children) != k || c.kinds != nil || c.data != nil {
			return nil, nil, 0, fmt.Errorf("inner node of %d entries has %d children, %d kinds, %d payloads", k, len(n.children), len(c.kinds), len(c.data))
		}
		for i, ch := range n.children {
			clo, chi, cleast, err := walk(ch, depth+1)
			if err != nil {
				return nil, nil, 0, err
			}
			if c.ID(i) != cleast {
				return nil, nil, 0, fmt.Errorf("child %d least id %d in its parent's columns, smallest id beneath is %d", i, c.ID(i), cleast)
			}
			for d := range clo {
				blo, bhi := c.Box(i).at(d)
				if math.Float64bits(blo) != math.Float64bits(clo[d]) || math.Float64bits(bhi) != math.Float64bits(chi[d]) {
					return nil, nil, 0, fmt.Errorf("child %d box dim %d is [%v,%v] in its parent's columns, union beneath is [%v,%v]", i, d, blo, bhi, clo[d], chi[d])
				}
			}
		}
		return lo, hi, least, nil
	}
	if root := tr.root.Load(); root != nil {
		if _, _, _, err := walk(root, 0); err != nil {
			return err
		}
	}
	switch {
	case seen != tr.Len():
		return fmt.Errorf("tree holds %d items, Len says %d", seen, tr.Len())
	case len(tr.byID) != seen:
		return fmt.Errorf("byID holds %d items, tree %d", len(tr.byID), seen)
	case want != nil && len(want) != seen:
		return fmt.Errorf("tree holds %d items, %d were put in", seen, len(want))
	}
	return nil
}

func TestBulkMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const dims, n = 8, 500
	items := make(map[uint64]Item, n)
	var list []Item
	for i := 0; i < n; i++ {
		it := randItem(rng, uint64(i+1), dims)
		items[it.ID] = it
		list = append(list, it)
	}
	tr := New(dims, 16)
	if err := tr.Bulk(list); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, tr)
	s := tr.Snapshot()
	for q := 0; q < 200; q++ {
		dim := rng.Intn(dims)
		a, b := rng.Float64(), rng.Float64()
		if a > b {
			a, b = b, a
		}
		got := collect(t, s, dim, a, b)
		want := brute(items, dim, a, b)
		if !sameIDs(got, want) {
			t.Fatalf("query dim %d [%v,%v]: got %d ids, want %d", dim, a, b, len(got), len(want))
		}
	}
}

// TestBulkPacksFullNodes pins the fill rule: a bulk load over n items makes
// within 5 % of ⌈n/cap⌉ + ⌈n/cap²⌉ + … + 1 nodes, the count of a tree whose
// every node is full, with every leaf at the same depth.
func TestBulkPacksFullNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct{ cap, n int }{
		{16, 1}, {16, 16}, {16, 17}, {16, 256}, {16, 20000},
		{4, 5}, {4, 64}, {4, 100}, {4, 1000},
	} {
		items := make([]Item, c.n)
		for i := range items {
			items[i] = randItem(rng, uint64(i+1), 3)
		}
		tr := New(3, c.cap)
		if err := tr.Bulk(items); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, tr)
		want := 0
		for span := c.cap; ; span *= c.cap {
			level := (c.n + span - 1) / span
			want += level
			if level == 1 {
				break
			}
		}
		nodes, depths := 0, map[int]bool{}
		var walk func(n *node, depth int)
		walk = func(n *node, depth int) {
			nodes++
			if n.leaf() {
				depths[depth] = true
			}
			for _, ch := range n.children {
				walk(ch, depth+1)
			}
		}
		walk(tr.root.Load(), 0)
		if nodes*100 > want*105 {
			t.Errorf("cap %d, %d items: %d nodes, a fully packed tree has %d", c.cap, c.n, nodes, want)
		}
		if len(depths) != 1 {
			t.Errorf("cap %d, %d items: leaves at depths %v", c.cap, c.n, depths)
		}
	}
}

// TestIncrementalEquivalence is the maintenance property: a tree built by
// interleaved inserts, updates, deletes and rebuilds answers every query
// exactly like one bulk-loaded from the final item set, and after every step
// the leaf columns hold exactly the live items and every union box, least id
// and fanout is what invariantErr demands.
func TestIncrementalEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const dims = 6
	live := make(map[uint64]Item)
	tr := New(dims, 8)
	nextID := uint64(1)
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(100); {
		case op < 60 || len(live) == 0: // insert
			it := randItem(rng, nextID, dims)
			nextID++
			live[it.ID] = it
			if err := tr.Insert(it); err != nil {
				t.Fatal(err)
			}
		case op < 80: // update a random live id
			var id uint64
			for id = range live {
				break
			}
			it := randItem(rng, id, dims)
			live[id] = it
			if err := tr.Update(it); err != nil {
				t.Fatal(err)
			}
		case op < 99: // delete a random live id
			var id uint64
			for id = range live {
				break
			}
			delete(live, id)
			if !tr.Delete(id) {
				t.Fatalf("delete %d: not found", id)
			}
		default:
			tr.Rebuild()
		}
		if err := invariantErr(tr, live); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	checkInvariants(t, tr)
	if tr.Len() != len(live) {
		t.Fatalf("tree Len %d, live set %d", tr.Len(), len(live))
	}

	fresh := New(dims, 8)
	var list []Item
	for _, it := range live {
		list = append(list, it)
	}
	if err := fresh.Bulk(list); err != nil {
		t.Fatal(err)
	}
	si, sf := tr.Snapshot(), fresh.Snapshot()
	for q := 0; q < 300; q++ {
		dim := rng.Intn(dims)
		a, b := rng.Float64(), rng.Float64()
		if a > b {
			a, b = b, a
		}
		got := collect(t, si, dim, a, b)
		want := collect(t, sf, dim, a, b)
		if !sameIDs(got, want) {
			t.Fatalf("incremental and rebuilt trees disagree on dim %d [%v,%v]", dim, a, b)
		}
		if bf := brute(live, dim, a, b); !sameIDs(got, bf) {
			t.Fatalf("incremental tree disagrees with brute force on dim %d [%v,%v]", dim, a, b)
		}
	}
}

func TestDeleteSemantics(t *testing.T) {
	tr := New(2, 4)
	if tr.Delete(42) {
		t.Fatal("delete on empty tree reported success")
	}
	items := []Item{
		{ID: 1, Lo: []float64{0.1, 0.1}, Hi: []float64{0.2, 0.2}},
		{ID: 2, Lo: []float64{0.5, 0.5}, Hi: []float64{0.6, 0.9}},
	}
	if err := tr.Bulk(items); err != nil {
		t.Fatal(err)
	}
	if !tr.Delete(1) || tr.Delete(1) {
		t.Fatal("delete of id 1 should succeed exactly once")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after delete, want 1", tr.Len())
	}
	if !tr.Delete(2) {
		t.Fatal("delete of id 2 failed")
	}
	if tr.root.Load() != nil {
		t.Fatal("emptied tree should have nil root")
	}
	// Reinsert into the emptied tree.
	if err := tr.Insert(items[0]); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, tr.Snapshot(), 0, 0, 1); !sameIDs(got, []uint64{1}) {
		t.Fatalf("reinsert lost the item: %v", got)
	}
}

func TestInsertReplacesExistingID(t *testing.T) {
	tr := New(1, 4)
	if err := tr.Insert(Item{ID: 5, Lo: []float64{0.1}, Hi: []float64{0.2}}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(Item{ID: 5, Lo: []float64{0.8}, Hi: []float64{0.9}}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after replacing insert", tr.Len())
	}
	if got := collect(t, tr.Snapshot(), 0, 0, 0.5); len(got) != 0 {
		t.Fatalf("old box still matches: %v", got)
	}
	if got := collect(t, tr.Snapshot(), 0, 0.85, 0.85); !sameIDs(got, []uint64{5}) {
		t.Fatalf("new box does not match: %v", got)
	}
}

func TestNeedsRebuildThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := New(4, 8)
	var list []Item
	for i := 0; i < 400; i++ {
		list = append(list, randItem(rng, uint64(i+1), 4))
	}
	if err := tr.Bulk(list); err != nil {
		t.Fatal(err)
	}
	if tr.NeedsRebuild() {
		t.Fatal("fresh bulk load should carry no debt")
	}
	for i := 0; i < 100; i++ {
		if !tr.Delete(uint64(i + 1)) {
			t.Fatalf("delete %d failed", i+1)
		}
	}
	if !tr.NeedsRebuild() {
		t.Fatal("100 deletes over 400 items should trip the rebuild threshold")
	}
	// Rebuild re-packs the surviving items: same answers, no debt.
	before := collect(t, tr.Snapshot(), 1, 0.2, 0.6)
	tr.Rebuild()
	if tr.NeedsRebuild() || tr.Len() != 300 {
		t.Fatalf("after Rebuild: needsRebuild=%v len=%d", tr.NeedsRebuild(), tr.Len())
	}
	checkInvariants(t, tr)
	if after := collect(t, tr.Snapshot(), 1, 0.2, 0.6); len(after) == 0 || !sameIDs(before, after) {
		t.Fatalf("Rebuild changed the answer: %v vs %v", before, after)
	}
	if err := tr.Bulk(nil); err != nil {
		t.Fatal(err)
	}
	if tr.NeedsRebuild() {
		t.Fatal("bulk load should reset the debt")
	}
}

// scored is an item ranked by its distance, in the (d, id) order.
type scored struct {
	id uint64
	d  float64
}

func (a scored) less(b scored) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.id < b.id
}

// l1LB is the L1 point-to-box lower bound from target. Over an item box it
// serves as the item's "exact" distance: point boxes make it the true L1
// distance, interval boxes a deterministic stand-in that respects lb ≤ exact.
func l1LB(target []float64) func(lo, hi []float64) float64 {
	return func(lo, hi []float64) float64 {
		s := 0.0
		for d := range lo {
			switch {
			case target[d] < lo[d]:
				s += lo[d] - target[d]
			case target[d] > hi[d]:
				s += target[d] - hi[d]
			}
		}
		return s
	}
}

// bruteTopK ranks every item by (lb of its box, id) and keeps the first k.
func bruteTopK(items map[uint64]Item, lb func(lo, hi []float64) float64, k int) []scored {
	all := make([]scored, 0, len(items))
	for _, it := range items {
		all = append(all, scored{it.ID, lb(it.Lo, it.Hi)})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].less(all[j]) })
	return all[:min(k, len(all))]
}

// bestFirstTopK keeps the (d, id) top k through BestFirst. With byID the
// prune rule is the k-th-match rule the k-NN path uses — (lb, id) is not
// better than the k-th; without it, the distance-only rule lb > k-th
// distance, which is monotone too but cannot stop among ties.
func bestFirstTopK(t testing.TB, s Snapshot, lb func(lo, hi []float64) float64, k int, byID bool) ([]scored, VisitStats) {
	t.Helper()
	kept := make([]scored, 0, k+1)
	prune := func(l float64, id uint64) bool {
		if len(kept) < k {
			return false
		}
		if byID {
			return !(scored{id, l}).less(kept[k-1])
		}
		return l > kept[k-1].d
	}
	dims := 0
	if s.root != nil {
		dims = len(s.root.cols.lo) / s.root.len()
	}
	bound := func(b Boxes, sel []int, out []float64) []float64 {
		out = out[:0]
		for _, i := range sel {
			out = append(out, lb(vectors(b, i, dims)))
		}
		return out
	}
	var st VisitStats
	err := s.BestFirst(bound, prune, func(l *Leaf, sel []int, lbs []float64) error {
		for j, i := range sel {
			c := scored{l.ID(i), lbs[j]}
			if len(kept) == k && !c.less(kept[k-1]) {
				continue
			}
			i := sort.Search(len(kept), func(i int) bool { return c.less(kept[i]) })
			kept = append(kept, scored{})
			copy(kept[i+1:], kept[i:])
			kept[i] = c
			kept = kept[:min(k, len(kept))]
		}
		return nil
	}, &st)
	if err != nil {
		t.Fatal(err)
	}
	return kept, st
}

func sameScored(a, b []scored) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBestFirstFindsNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const dims, n, k = 5, 300, 7
	items := make(map[uint64]Item, n)
	var list []Item
	for i := 0; i < n; i++ {
		it := randItem(rng, uint64(i+1), dims)
		items[it.ID] = it
		list = append(list, it)
	}
	tr := New(dims, 8)
	if err := tr.Bulk(list); err != nil {
		t.Fatal(err)
	}
	target := make([]float64, dims)
	for d := range target {
		target[d] = rng.Float64()
	}
	lb := l1LB(target)
	want := bruteTopK(items, lb, k)
	kept, st := bestFirstTopK(t, tr.Snapshot(), lb, k, true)
	if !sameScored(kept, want) {
		t.Fatalf("best-first top %d %v, brute force %v", k, kept, want)
	}
	if st.NodesVisited == 0 || st.LeafChecks == 0 {
		t.Fatalf("best-first did no work: %+v", st)
	}
	if st.LeafChecks >= int64(n) {
		t.Fatalf("best-first checked every item (%d of %d): no pruning", st.LeafChecks, n)
	}
}

// TestBestFirstTiesPrunedByID pins the subtree half of the tie rule: when
// the k-th distance is shared by many items, subtrees are pruned on their
// smallest id, so the descent stops once it holds its k ties instead of
// checking every tied item to lose on id.
func TestBestFirstTiesPrunedByID(t *testing.T) {
	const dims, n = 3, 240
	points := [][]float64{{0.1, 0.5, 0.9}, {0.2, 0.5, 0.8}, {0.3, 0.4, 0.8}, {0.6, 0.1, 0.3}}
	items := make(map[uint64]Item, n)
	var list []Item
	for i := 0; i < n; i++ {
		p := points[i%len(points)] // ids of the four boxes interleave
		it := Item{ID: uint64(i + 1), Lo: p, Hi: p}
		items[it.ID] = it
		list = append(list, it)
	}
	tr := New(dims, 4)
	if err := tr.Bulk(list); err != nil {
		t.Fatal(err)
	}
	lb := l1LB(points[0])
	for _, k := range []int{1, 10, n} {
		want := bruteTopK(items, lb, k)
		got, st := bestFirstTopK(t, tr.Snapshot(), lb, k, true)
		if !sameScored(got, want) {
			t.Fatalf("k=%d: best-first %v, brute force %v", k, got, want)
		}
		old, ost := bestFirstTopK(t, tr.Snapshot(), lb, k, false)
		if !sameScored(old, want) {
			t.Fatalf("k=%d: distance-only rule %v, brute force %v", k, old, want)
		}
		if k < n/len(points) && st.LeafChecks >= ost.LeafChecks {
			t.Fatalf("k=%d: (lb, id) pruning checked %d items, distance-only %d", k, st.LeafChecks, ost.LeafChecks)
		}
		if k == n && st.LeafChecks != n {
			t.Fatalf("k=n: checked %d items, want all %d", st.LeafChecks, n)
		}
	}
}

// FuzzBestFirstTies is BestFirst against the brute-force (lb, id) top k on
// fuzz-built trees: coordinates on a coarse grid so distances tie, boxes
// and ids duplicated on purpose, point and interval boxes, fuzzed k and
// fanout, and the tree built by Bulk or by a sequence of Inserts (which
// replace a duplicate id, as Bulk keeps its last occurrence).
func FuzzBestFirstTies(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, uint8(3), uint8(4), false)
	f.Add(bytes.Repeat([]byte{0, 0, 0}, 40), uint8(10), uint8(4), true)
	f.Add([]byte("interleaved ids over duplicated point and interval boxes"), uint8(1), uint8(5), false)
	// Each of these fails one broken descent: subtrees pruned on distance
	// alone at the k-th distance, a child pruned on an id above its minID,
	// the heap ordered by lb alone so the early stop is unsound.
	f.Add([]byte("00089000000000100000"), uint8(1), uint8(5), false)
	f.Add([]byte("20021000121000000000000000100120000000Y20A20020070000"), uint8(1), uint8(4), false)
	f.Add([]byte("20y20a200001000000000"), uint8(1), uint8('='), false)
	f.Fuzz(func(t *testing.T, data []byte, k, fanout uint8, incremental bool) {
		if len(data) < 2 {
			return
		}
		const dims = 2
		grid := func(b byte) float64 { return float64(b%5) / 4 }
		target := []float64{grid(data[0]), grid(data[1])}
		data = data[2:]
		items := make(map[uint64]Item)
		var list []Item
		for len(data) >= 3 && len(list) < 200 {
			ctl, x, y := data[0], data[1], data[2]
			data = data[3:]
			var it Item
			switch {
			case ctl%4 == 0 && len(list) > 0: // duplicate an earlier box under a new id
				prev := list[int(x)%len(list)]
				it = Item{Lo: prev.Lo, Hi: prev.Hi}
			case ctl%4 == 1: // interval box
				lo := []float64{grid(x), grid(y)}
				hi := []float64{min(1, lo[0]+grid(ctl>>2)), min(1, lo[1]+grid(ctl>>5))}
				it = Item{Lo: lo, Hi: hi}
			default: // point box
				p := []float64{grid(x), grid(y)}
				it = Item{Lo: p, Hi: p}
			}
			it.ID = uint64(len(list) + 1)
			if ctl&0x80 != 0 && len(list) > 0 { // reuse an earlier id
				it.ID = uint64(int(y)%len(list) + 1)
			}
			it.Kind, it.Data = ctl%3, uint64(len(list))
			items[it.ID] = it
			list = append(list, it)
		}
		tr := New(dims, int(fanout%8))
		if incremental {
			put := make(map[uint64]Item)
			for _, it := range list {
				if err := tr.Insert(it); err != nil {
					t.Fatal(err)
				}
				put[it.ID] = it
				if err := invariantErr(tr, put); err != nil {
					t.Fatal(err)
				}
			}
		} else if err := tr.Bulk(list); err != nil {
			t.Fatal(err)
		}
		if err := invariantErr(tr, items); err != nil {
			t.Fatal(err)
		}
		kk := int(k)%(len(items)+2) + 1
		lb := l1LB(target)
		want := bruteTopK(items, lb, kk)
		got, _ := bestFirstTopK(t, tr.Snapshot(), lb, kk, true)
		if !sameScored(got, want) {
			t.Fatalf("k=%d over %d items: best-first %v, brute force %v", kk, len(items), got, want)
		}
	})
}

// TestSnapshotStableUnderMutation pins the lock-free read contract:
// concurrent readers over captured snapshots keep seeing exactly the item
// set published at capture time while a writer churns the tree.
func TestSnapshotStableUnderMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const dims = 4
	tr := New(dims, 8)
	var list []Item
	for i := 0; i < 200; i++ {
		list = append(list, randItem(rng, uint64(i+1), dims))
	}
	if err := tr.Bulk(list); err != nil {
		t.Fatal(err)
	}
	live := make(map[uint64]Item, len(list))
	for _, it := range list {
		live[it.ID] = it
	}
	s := tr.Snapshot()
	wantLen := s.Len()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var st VisitStats
				n := 0
				err := s.Visit(func(_ Boxes, out []Overlap) {
					for i := range out {
						out[i] = OverlapPartial
					}
				},
					func(l *Leaf, _ []Overlap) error { n += l.Len(); return nil }, &st)
				if err != nil || n != wantLen {
					t.Errorf("snapshot drifted: n=%d want %d err=%v", n, wantLen, err)
					return
				}
			}
		}()
	}
	wrng := rand.New(rand.NewSource(29))
	for i := 0; i < 500; i++ {
		id := uint64(wrng.Intn(400) + 1)
		switch op := wrng.Intn(20); {
		case op < 9:
			it := randItem(wrng, id, dims)
			if err := tr.Insert(it); err != nil {
				t.Error(err)
			}
			live[id] = it
		case op < 19:
			tr.Delete(id)
			delete(live, id)
		default:
			tr.Rebuild()
		}
		if err := invariantErr(tr, live); err != nil {
			t.Errorf("step %d: %v", i, err)
		}
		if t.Failed() {
			break
		}
	}
	close(stop)
	wg.Wait()
	checkInvariants(t, tr)
}

func TestDimsValidation(t *testing.T) {
	tr := New(3, 4)
	if err := tr.Insert(Item{ID: 1, Lo: []float64{0}, Hi: []float64{1}}); err == nil {
		t.Fatal("wrong-dims insert should fail")
	}
	if err := tr.Insert(Item{ID: 1, Lo: []float64{0, 0, 0.5}, Hi: []float64{1, 1, 0.4}}); err == nil {
		t.Fatal("inverted box should fail")
	}
	if err := tr.Bulk([]Item{{ID: 1, Lo: []float64{0, 0}, Hi: []float64{1, 1}}}); err == nil {
		t.Fatal("wrong-dims bulk should fail")
	}
}
