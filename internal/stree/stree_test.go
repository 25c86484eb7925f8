package stree

import (
	"bytes"
	"fmt"
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

// minIDErr walks the published tree and reports the first node whose minID
// is not the smallest item id beneath it.
func minIDErr(tr *Tree) error {
	var walk func(n *node) (uint64, error)
	walk = func(n *node) (uint64, error) {
		var least uint64 = math.MaxUint64
		if n.leaf() {
			for _, it := range n.items {
				least = min(least, it.ID)
			}
		} else {
			for _, ch := range n.children {
				m, err := walk(ch)
				if err != nil {
					return 0, err
				}
				least = min(least, m)
			}
		}
		if n.minID != least {
			return 0, fmt.Errorf("node minID %d, smallest id beneath is %d", n.minID, least)
		}
		return least, nil
	}
	if root := tr.root.Load(); root != nil {
		_, err := walk(root)
		return err
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

// TestIncrementalEquivalence is the maintenance property: a tree built by
// interleaved inserts, updates, deletes and rebuilds answers every query
// exactly like one bulk-loaded from the final item set, and every node's
// minID stays the smallest id beneath it after every step.
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
		if err := minIDErr(tr); err != nil {
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
	var st VisitStats
	err := s.BestFirst(lb, prune, func(it *Item) error {
		c := scored{it.ID, lb(it.Lo, it.Hi)}
		if len(kept) == k && !c.less(kept[k-1]) {
			return nil
		}
		i := sort.Search(len(kept), func(i int) bool { return c.less(kept[i]) })
		kept = append(kept, scored{})
		copy(kept[i+1:], kept[i:])
		kept[i] = c
		kept = kept[:min(k, len(kept))]
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
			items[it.ID] = it
			list = append(list, it)
		}
		tr := New(dims, int(fanout%8))
		if incremental {
			for _, it := range list {
				if err := tr.Insert(it); err != nil {
					t.Fatal(err)
				}
			}
		} else if err := tr.Bulk(list); err != nil {
			t.Fatal(err)
		}
		if err := minIDErr(tr); err != nil {
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
		switch op := wrng.Intn(20); {
		case op < 9:
			if err := tr.Insert(randItem(wrng, id, dims)); err != nil {
				t.Error(err)
			}
		case op < 19:
			tr.Delete(id)
		default:
			tr.Rebuild()
		}
		if err := minIDErr(tr); err != nil {
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
