package stree

import (
	"math"
	"math/rand"
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
	return Item{ID: id, Lo: lo, Hi: hi}
}

// slabClassify classifies against "box intersects [qmin,qmax] in dim" —
// the single-bin range query shape.
func slabClassify(dim int, qmin, qmax float64) func(lo, hi []float64) Overlap {
	return func(lo, hi []float64) Overlap {
		if lo[dim] > qmax || hi[dim] < qmin {
			return OverlapNone
		}
		if lo[dim] >= qmin && hi[dim] <= qmax {
			return OverlapFull
		}
		return OverlapPartial
	}
}

// collect runs a slab query over the snapshot and returns the sorted ids.
func collect(t *testing.T, s Snapshot, dim int, qmin, qmax float64) []uint64 {
	t.Helper()
	var ids []uint64
	var st VisitStats
	err := s.Visit(slabClassify(dim, qmin, qmax), func(it *Item, ov Overlap) error {
		ids = append(ids, it.ID)
		return nil
	}, &st)
	if err != nil {
		t.Fatalf("visit: %v", err)
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

// checkInvariants walks the published tree verifying the union-box and
// fanout invariants.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	root := tr.root.Load()
	if root == nil {
		if tr.Len() != 0 {
			t.Fatalf("nil root with Len %d", tr.Len())
		}
		return
	}
	if got := root.count(); got != tr.Len() {
		t.Fatalf("tree holds %d items, Len says %d", got, tr.Len())
	}
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf() {
			if len(n.items) == 0 {
				t.Fatalf("empty leaf survived")
			}
			if len(n.items) > tr.cap {
				t.Fatalf("leaf with %d items exceeds cap %d", len(n.items), tr.cap)
			}
			for _, it := range n.items {
				if !containsBox(n, it) {
					t.Fatalf("leaf box does not contain item %d", it.ID)
				}
			}
			return
		}
		if len(n.children) == 0 {
			t.Fatalf("empty inner node survived")
		}
		if len(n.children) > tr.cap {
			t.Fatalf("inner node with %d children exceeds cap %d", len(n.children), tr.cap)
		}
		for _, ch := range n.children {
			for d := 0; d < tr.dims; d++ {
				if ch.lo[d] < n.lo[d] || ch.hi[d] > n.hi[d] {
					t.Fatalf("child box escapes parent union at dim %d", d)
				}
			}
			walk(ch)
		}
	}
	walk(root)
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

// TestIncrementalEquivalence is the maintenance property: a tree built by
// interleaved inserts, updates and deletes answers every query exactly
// like one bulk-loaded from the final item set.
func TestIncrementalEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const dims = 6
	live := make(map[uint64]Item)
	tr := New(dims, 8)
	nextID := uint64(1)
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(10); {
		case op < 6 || len(live) == 0: // insert
			it := randItem(rng, nextID, dims)
			nextID++
			live[it.ID] = it
			if err := tr.Insert(it); err != nil {
				t.Fatal(err)
			}
		case op < 8: // update a random live id
			var id uint64
			for id = range live {
				break
			}
			it := randItem(rng, id, dims)
			live[id] = it
			if err := tr.Update(it); err != nil {
				t.Fatal(err)
			}
		default: // delete a random live id
			var id uint64
			for id = range live {
				break
			}
			delete(live, id)
			if !tr.Delete(id) {
				t.Fatalf("delete %d: not found", id)
			}
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

func TestBestFirstFindsNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const dims, n, k = 5, 300, 7
	var list []Item
	for i := 0; i < n; i++ {
		list = append(list, randItem(rng, uint64(i+1), dims))
	}
	tr := New(dims, 8)
	if err := tr.Bulk(list); err != nil {
		t.Fatal(err)
	}
	target := make([]float64, dims)
	for d := range target {
		target[d] = rng.Float64()
	}
	// L1 point-to-box lower bound.
	lb := func(lo, hi []float64) float64 {
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
	// The "exact" distance of an item is its box lower bound (point boxes
	// make this the true L1 distance; interval boxes give a deterministic
	// stand-in that still respects lb ≤ exact).
	type scored struct {
		id uint64
		d  float64
	}
	var all []scored
	for _, it := range list {
		all = append(all, scored{it.ID, lb(it.Lo, it.Hi)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d < all[j].d
		}
		return all[i].id < all[j].id
	})
	want := all[:k]

	kept := make([]scored, 0, k)
	threshold := func() float64 {
		if len(kept) < k {
			return math.Inf(1)
		}
		return kept[len(kept)-1].d
	}
	var st VisitStats
	err := tr.Snapshot().BestFirst(lb, threshold, func(it *Item) error {
		d := lb(it.Lo, it.Hi)
		if d > threshold() {
			return nil
		}
		kept = append(kept, scored{it.ID, d})
		sort.Slice(kept, func(i, j int) bool {
			if kept[i].d != kept[j].d {
				return kept[i].d < kept[j].d
			}
			return kept[i].id < kept[j].id
		})
		if len(kept) > k {
			kept = kept[:k]
		}
		return nil
	}, &st)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != k {
		t.Fatalf("kept %d results, want %d", len(kept), k)
	}
	for i := range want {
		if kept[i].id != want[i].id {
			t.Fatalf("result %d: got id %d (d=%v), want id %d (d=%v)", i, kept[i].id, kept[i].d, want[i].id, want[i].d)
		}
	}
	if st.NodesVisited == 0 || st.LeafChecks == 0 {
		t.Fatalf("best-first did no work: %+v", st)
	}
	if st.LeafChecks >= int64(n) {
		t.Fatalf("best-first checked every item (%d of %d): no pruning", st.LeafChecks, n)
	}
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
				err := s.Visit(func(lo, hi []float64) Overlap { return OverlapPartial },
					func(it *Item, ov Overlap) error { n++; return nil }, &st)
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
		if wrng.Intn(2) == 0 {
			if err := tr.Insert(randItem(wrng, id, dims)); err != nil {
				t.Error(err)
				break
			}
		} else {
			tr.Delete(id)
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
