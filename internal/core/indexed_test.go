package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/editops"
	"repro/internal/histogram"
	"repro/internal/imaging"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/store/segment"
	"repro/internal/stree"
)

// TestModeRegistryComplete pins the mode registry's internal consistency:
// every registered mode round-trips through String/ParseMode, names are
// unique and parseable, the per-mode metric maps are fully populated, and
// the unknown-mode error enumerates every valid name. A new mode added to
// allModes passes automatically; one added anywhere else fails here.
func TestModeRegistryComplete(t *testing.T) {
	modes := AllModes()
	if len(modes) == 0 {
		t.Fatal("AllModes is empty")
	}
	seen := make(map[string]bool)
	for _, m := range modes {
		name := m.String()
		if strings.HasPrefix(name, "mode(") {
			t.Fatalf("mode %d has no String name", uint8(m))
		}
		if seen[name] {
			t.Fatalf("duplicate mode name %q", name)
		}
		seen[name] = true
		got, err := ParseMode(name)
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", name, err)
		}
		if got != m {
			t.Fatalf("ParseMode(%q) = %v, want %v", name, got, m)
		}
		if mQueryDur[m] == nil || mQueryCount[m] == nil {
			t.Fatalf("mode %s missing from per-mode metric maps", name)
		}
	}
	if got, err := ParseMode(""); err != nil || got != ModeBWM {
		t.Fatalf("ParseMode(\"\") = %v, %v; want ModeBWM", got, err)
	}
	if _, err := ParseMode("no-such-mode"); err == nil {
		t.Fatal("ParseMode accepted an unknown mode")
	} else {
		for _, name := range ModeNames() {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("unknown-mode error %q does not enumerate %q", err, name)
			}
		}
	}
	if names := ModeNames(); len(names) != len(modes) {
		t.Fatalf("ModeNames has %d entries, AllModes has %d", len(names), len(modes))
	}
}

// TestModeRegistryFourModes pins the collapsed strategy surface: exactly
// four modes, and the retired names fail like any unknown mode, with an
// error that enumerates exactly the surviving four.
func TestModeRegistryFourModes(t *testing.T) {
	if n := len(AllModes()); n != 4 {
		t.Fatalf("AllModes has %d modes, want 4", n)
	}
	for _, retired := range []string{"bwm-indexed", "cached-bounds"} {
		_, err := ParseMode(retired)
		if err == nil {
			t.Fatalf("ParseMode accepted retired mode %q", retired)
		}
		if !strings.Contains(err.Error(), "(valid: bwm, rbm, instantiate, indexed)") {
			t.Fatalf("ParseMode(%q) error %q does not enumerate exactly the four modes", retired, err)
		}
	}
}

// requireIndexedEqualsRBM checks that db answers every query in ModeIndexed
// exactly as ref (often db itself) answers it with a fresh RBM walk.
func requireIndexedEqualsRBM(t testing.TB, when string, db, ref *DB, queries []query.Range) {
	t.Helper()
	for qi, q := range queries {
		want, err := ref.RangeQuery(q, ModeRBM)
		if err != nil {
			t.Fatalf("%s, query %d rbm: %v", when, qi, err)
		}
		got, err := db.RangeQuery(q, ModeIndexed)
		if err != nil {
			t.Fatalf("%s, query %d indexed: %v", when, qi, err)
		}
		if !sameIDs(got.IDs, want.IDs) {
			t.Fatalf("%s, query %d %+v: indexed %v != rbm %v", when, qi, q, got.IDs, want.IDs)
		}
	}
}

// indexedMutate applies a deterministic mutation storm: deletes a spread of
// edited images, appends ops to survivors, deletes one base (cascading),
// and inserts a fresh wave of images — every write path the S-tree
// maintains incrementally.
func indexedMutate(t testing.TB, db *DB, seed int64) {
	t.Helper()
	edited := db.EditedIDs()
	for i := 0; i < len(edited); i += 4 {
		if err := db.Delete(edited[i]); err != nil {
			t.Fatalf("delete edited %d: %v", edited[i], err)
		}
	}
	bases := db.Binaries()
	if len(bases) == 0 {
		return
	}
	appended := 0
	for _, id := range db.EditedIDs() {
		if appended == 3 {
			break
		}
		ops := editops.PasteOnto(imaging.Rect{X0: 0, Y0: 0, X1: 3, Y1: 3}, bases[0], 0, 0)
		if err := db.AppendOps(id, ops); err != nil {
			t.Fatalf("append ops to %d: %v", id, err)
		}
		appended++
	}
	if len(bases) > 1 {
		victim := bases[len(bases)-1]
		for _, id := range db.EditedOf(victim) {
			if err := db.Delete(id); err != nil {
				t.Fatalf("delete dependent %d: %v", id, err)
			}
		}
		// Other sequences may still Merge-reference the base; the catalog
		// rejects that delete, which is fine — the dependent deletes above
		// already exercised the index's delete path.
		_ = db.Delete(victim)
	}
	populate(t, db, 2, 2, 0.5, seed)
}

// resetSearchIndex discards the incrementally-maintained S-tree so the next
// indexed query bulk-rebuilds from the catalog.
func resetSearchIndex(db *DB) {
	db.mu.Lock()
	db.sidxReady.Store(false)
	db.sidx = stree.New(db.cfg.Quantizer.Bins(), sidxFanout)
	db.mu.Unlock()
}

// TestIndexedIncrementalEqualsRebuild is the index-maintenance property
// test: after an arbitrary interleaving of inserts, appends and deletes,
// the incrementally-maintained tree must answer every query identically to
// the same items re-packed (the debt-triggered rebuild) and to a tree
// bulk-built from the catalog from scratch — and all identically to the
// RBM scan.
func TestIndexedIncrementalEqualsRebuild(t *testing.T) {
	db := memDB(t)
	populate(t, db, 5, 3, 0.4, 21)

	// First indexed query builds the tree; everything after is maintained
	// incrementally by the write paths.
	if _, err := db.RangeQuery(query.Range{Bin: 0, PctMin: 0, PctMax: 1}, ModeIndexed); err != nil {
		t.Fatal(err)
	}
	if ready, items, _ := db.SearchIndexStats(); !ready || items == 0 {
		t.Fatalf("index not built: ready=%v items=%d", ready, items)
	}

	for round := 0; round < 3; round++ {
		indexedMutate(t, db, int64(1000+round))
		rng := rand.New(rand.NewSource(int64(31 * (round + 1))))
		queries := randomRanges(rng, db.cfg.Quantizer.Bins(), 25)
		answers := func(stage string, mode Mode) [][]uint64 {
			out := make([][]uint64, len(queries))
			for qi, q := range queries {
				res, err := db.RangeQuery(q, mode)
				if err != nil {
					t.Fatalf("round %d query %d %s: %v", round, qi, stage, err)
				}
				out[qi] = res.IDs
			}
			return out
		}

		incremental := answers("incremental", ModeIndexed)
		db.mu.Lock()
		db.sidx.Rebuild()
		db.mu.Unlock()
		repacked := answers("re-packed", ModeIndexed)
		resetSearchIndex(db)
		rebuilt := answers("rebuilt", ModeIndexed)
		scan := answers("scan", ModeRBM)
		for qi := range queries {
			if !sameIDs(incremental[qi], repacked[qi]) {
				t.Fatalf("round %d query %d %+v: incremental %v != re-packed %v",
					round, qi, queries[qi], incremental[qi], repacked[qi])
			}
			if !sameIDs(incremental[qi], rebuilt[qi]) {
				t.Fatalf("round %d query %d %+v: incremental %v != rebuilt %v",
					round, qi, queries[qi], incremental[qi], rebuilt[qi])
			}
			if !sameIDs(rebuilt[qi], scan[qi]) {
				t.Fatalf("round %d query %d %+v: indexed %v != scan %v",
					round, qi, queries[qi], rebuilt[qi], scan[qi])
			}
		}
	}
}

// TestIndexedRebuildWalksNoRules pins the re-packing rebuild: once update
// debt passes the tree's threshold the next indexed query rebuilds, but
// from the items the tree already holds — every write kept them exact — so
// the rebuild evaluates no rules and the answer still equals RBM's.
func TestIndexedRebuildWalksNoRules(t *testing.T) {
	db := memDB(t)
	populate(t, db, 6, 4, 0.3, 44)
	q := query.Range{Bin: db.cfg.Quantizer.Bin(dataset.Red), PctMin: 0.1, PctMax: 0.8}
	if _, err := db.RangeQuery(q, ModeIndexed); err != nil {
		t.Fatal(err)
	}
	bases := db.Binaries()
	for round := 0; !db.sidx.NeedsRebuild(); round++ {
		if round == 10 {
			t.Fatal("update debt never passed the rebuild threshold")
		}
		for _, id := range db.EditedIDs() {
			ops := editops.PasteOnto(imaging.Rect{X0: 0, Y0: 0, X1: 2, Y1: 2}, bases[round%len(bases)], 0, 0)
			if err := db.AppendOps(id, ops); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := db.RangeQuery(q, ModeRBM)
	if err != nil {
		t.Fatal(err)
	}

	walked := obs.Default().Counter("esidb_rbm_edited_walked_total")
	rebuildsBefore, walkedBefore := mIndexRebuilds.Value(), walked.Value()
	got, err := db.RangeQuery(q, ModeIndexed)
	if err != nil {
		t.Fatal(err)
	}
	if d := mIndexRebuilds.Value() - rebuildsBefore; d != 1 {
		t.Fatalf("esidb_index_rebuilds_total rose by %d, want 1", d)
	}
	if d := walked.Value() - walkedBefore; d != 0 {
		t.Fatalf("rebuild walked the rules of %d edited images, want 0", d)
	}
	if _, items, needs := db.SearchIndexStats(); needs || items != len(bases)+len(db.EditedIDs()) {
		t.Fatalf("after rebuild: items=%d needsRebuild=%v", items, needs)
	}
	if !sameIDs(got.IDs, want.IDs) {
		t.Fatalf("indexed after rebuild %v != rbm %v", got.IDs, want.IDs)
	}
}

// TestIndexedUniversalBoxFallback covers the can't-lose-a-candidate
// promise: an edited image whose bounds could not be computed at index time
// carries the universal box, is never decided geometrically, and pays one
// rule walk at the leaf per query — in memory and over sealed segments —
// so range and multi-bin answers still equal RBM's.
func TestIndexedUniversalBoxFallback(t *testing.T) {
	for _, backend := range []string{"memory", "segmented"} {
		t.Run(backend, func(t *testing.T) {
			var db *DB
			if backend == "segmented" {
				db = segDB(t, filepath.Join(t.TempDir(), "u.esidb"), segment.Options{})
				defer db.Close()
			} else {
				db = memDB(t)
			}
			populate(t, db, 4, 3, 0.4, 91)
			if err := db.Sync(); err != nil { // segmented: seal, so reads span segments
				t.Fatal(err)
			}
			if _, err := db.RangeQuery(query.Range{Bin: 0, PctMin: 0, PctMax: 1}, ModeIndexed); err != nil {
				t.Fatal(err)
			}
			// Degrade every third edited item to what sidxEditedItem stores
			// when the bounds computation fails.
			bins := db.cfg.Quantizer.Bins()
			degraded := 0
			db.mu.Lock()
			for i, id := range db.EditedIDs() {
				if i%3 != 0 {
					continue
				}
				if err := db.sidx.Update(sidxUniversalItem(id, bins)); err != nil {
					t.Fatal(err)
				}
				degraded++
			}
			db.mu.Unlock()

			rng := rand.New(rand.NewSource(17))
			for qi, q := range randomRanges(rng, bins, 20) {
				want, err := db.RangeQuery(q, ModeRBM)
				if err != nil {
					t.Fatal(err)
				}
				tr := obs.NewTrace()
				got, err := db.RangeQueryCtx(context.Background(), q, ModeIndexed, WithTrace(tr))
				if err != nil {
					t.Fatal(err)
				}
				if !sameIDs(got.IDs, want.IDs) {
					t.Fatalf("query %d %+v: indexed %v != rbm %v", qi, q, got.IDs, want.IDs)
				}
				if walked := int(tr.Get(obs.TEditedWalked)); walked != degraded {
					t.Fatalf("query %d: %d universal-box items walked, want %d", qi, walked, degraded)
				}
				mq := query.MultiRange{Bins: []int{q.Bin, (q.Bin + 7) % bins}, PctMin: q.PctMin, PctMax: q.PctMax}
				mwant, err := db.RangeQueryMulti(mq, ModeRBM)
				if err != nil {
					t.Fatal(err)
				}
				mgot, err := db.RangeQueryMulti(mq, ModeIndexed)
				if err != nil {
					t.Fatal(err)
				}
				if !sameIDs(mgot.IDs, mwant.IDs) {
					t.Fatalf("multi query %d %+v: indexed %v != rbm %v", qi, mq, mgot.IDs, mwant.IDs)
				}
				if mgot.Stats.EditedWalked != degraded {
					t.Fatalf("multi query %d: walked %d, want %d", qi, mgot.Stats.EditedWalked, degraded)
				}
			}
		})
	}
}

// TestIndexedLeafBoundsEqualPerBinWalk pins the exactness claim the mode
// rests on: the packed integers an S-tree leaf stores for an edited image
// (one BoundsAll walk: one total, an int32 [min,max] pair per bin) are bin
// for bin the Bounds RBM's per-bin walk computes, and the leaf's float box
// is that vector's PctRange.
func TestIndexedLeafBoundsEqualPerBinWalk(t *testing.T) {
	db := memDB(t)
	populate(t, db, 4, 3, 0.4, 27)
	if _, err := db.RangeQuery(query.Range{Bin: 0, PctMin: 0, PctMax: 1}, ModeIndexed); err != nil {
		t.Fatal(err)
	}
	edited := 0
	var vst stree.VisitStats
	err := db.sidx.Snapshot().Visit(
		func(lo, hi []float64) stree.Overlap { return stree.OverlapFull },
		func(it *stree.Item, _ stree.Overlap) error {
			e := it.Data.(*sidxEntry)
			if !e.edited {
				return nil
			}
			edited++
			if len(e.minmax) != 2*len(it.Lo) {
				return fmt.Errorf("image %d: leaf packs %d integers for %d bins", it.ID, len(e.minmax), len(it.Lo))
			}
			for bin := range it.Lo {
				walked, err := db.Bounds(it.ID, bin)
				if err != nil {
					return err
				}
				stored := rules.Bounds{Min: int(e.minmax[2*bin]), Max: int(e.minmax[2*bin+1]), Total: e.total}
				if lo, hi := walked.PctRange(); walked != stored || it.Lo[bin] != lo || it.Hi[bin] != hi {
					return fmt.Errorf("image %d bin %d: leaf %+v [%v,%v], per-bin walk %+v", it.ID, bin, stored, it.Lo[bin], it.Hi[bin], walked)
				}
			}
			return nil
		}, &vst)
	if err != nil {
		t.Fatal(err)
	}
	if edited != len(db.EditedIDs()) {
		t.Fatalf("visited %d edited leaves, catalog has %d", edited, len(db.EditedIDs()))
	}
	if _, err := db.Bounds(db.Binaries()[0], 0); err == nil {
		t.Fatal("Bounds accepted a binary image")
	}
}

// TestIndexedFollowsShippedWAL drives the replication write path at the
// core level: a follower whose S-tree is already built applies the leader's
// shipped redo records (inserts, appends, deletes), so every replicated
// write goes through incremental index maintenance — and its indexed
// answers must equal the leader's RBM answers.
func TestIndexedFollowsShippedWAL(t *testing.T) {
	dir := t.TempDir()
	open := func(name string) *DB {
		db, err := Open(Config{Path: filepath.Join(dir, name)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	leader, follower := open("leader.esidb"), open("follower.esidb")
	ctx := context.Background()
	var cursor uint64
	ship := func() {
		t.Helper()
		for {
			page, err := leader.WALTail(ctx, cursor, 64, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(page.Frames) == 0 {
				return
			}
			for _, fr := range page.Frames {
				if err := follower.ApplyRedoRecord(ctx, fr.Payload); err != nil {
					t.Fatalf("apply lsn %d: %v", fr.LSN, err)
				}
				cursor = fr.LSN
			}
		}
	}

	populate(t, leader, 3, 2, 0.4, 61)
	ship()
	if _, err := follower.RangeQuery(query.Range{Bin: 0, PctMin: 0, PctMax: 1}, ModeIndexed); err != nil {
		t.Fatal(err)
	}
	indexedMutate(t, leader, 62)
	ship()

	if _, err := memDB(t).WALTail(ctx, 0, 1, 0); !errors.Is(err, ErrNoWAL) {
		t.Fatalf("in-memory WALTail: %v, want ErrNoWAL", err)
	}
	if ready, items, _ := follower.SearchIndexStats(); !ready || items != len(leader.Binaries())+len(leader.EditedIDs()) {
		t.Fatalf("follower index: ready=%v items=%d", ready, items)
	}
	rng := rand.New(rand.NewSource(63))
	requireIndexedEqualsRBM(t, "after shipping", follower, leader, randomRanges(rng, leader.cfg.Quantizer.Bins(), 25))
}

// TestIndexedKNNMatchesScan proves the best-first search returns exactly the
// instantiate-everything scan's k nearest neighbors for every metric and k,
// whatever mode option rides along (k-NN accepts and ignores it).
func TestIndexedKNNMatchesScan(t *testing.T) {
	db := memDB(t)
	populate(t, db, 6, 4, 0.4, 33)
	targetImg := dataset.Flags(1, 32, 24, 77)[0].Img
	target := histogram.Extract(targetImg, db.cfg.Quantizer)
	ctx := context.Background()
	for _, metric := range []query.Metric{query.MetricL1, query.MetricL2, query.MetricIntersection} {
		for _, k := range []int{1, 5, 50} {
			q := query.KNN{Target: target, K: k, Metric: metric}
			scan := bruteForceKNN(t, db, q)
			idx, _, err := db.KNNCtx(ctx, q, ModeIndexed)
			if err != nil {
				t.Fatalf("%s k=%d indexed: %v", metric, k, err)
			}
			if len(scan) != len(idx) {
				t.Fatalf("%s k=%d: scan %d matches, indexed %d", metric, k, len(scan), len(idx))
			}
			for i := range scan {
				if scan[i] != idx[i] {
					t.Fatalf("%s k=%d match %d: scan %+v, indexed %+v", metric, k, i, scan[i], idx[i])
				}
			}
		}
	}
}

// TestIndexedTraceCounters asserts the descent instrumentation fires: node
// visits are counted, an all-of-space query admits whole subtrees without
// leaf checks, and a selective query visits fewer leaves than the catalog
// holds candidates.
func TestIndexedTraceCounters(t *testing.T) {
	db := memDB(t)
	populate(t, db, 6, 4, 0.3, 55)
	candidates := int64(len(db.Binaries()) + len(db.EditedIDs()))

	tr := obs.NewTrace()
	if _, err := db.RangeQueryCtx(context.Background(), query.Range{Bin: 0, PctMin: 0, PctMax: 1}, ModeIndexed, WithTrace(tr)); err != nil {
		t.Fatal(err)
	}
	if tr.Get(obs.TIndexNodesVisited) == 0 {
		t.Fatal("all-of-space query visited no index nodes")
	}
	if tr.Get(obs.TIndexSubtreeAdmitted) == 0 {
		t.Fatal("all-of-space query admitted no subtrees wholesale")
	}
	if lc := tr.Get(obs.TIndexLeafChecks); lc != 0 {
		t.Fatalf("all-of-space query should admit geometrically, made %d leaf checks", lc)
	}

	tr = obs.NewTrace()
	if _, err := db.RangeQueryCtx(context.Background(), query.Range{Bin: 0, PctMin: 0.999, PctMax: 1}, ModeIndexed, WithTrace(tr)); err != nil {
		t.Fatal(err)
	}
	if v := tr.Get(obs.TIndexNodesVisited); v == 0 {
		t.Fatal("selective query visited no index nodes")
	} else if v > candidates {
		t.Fatalf("selective query visited %d nodes over %d candidates: no pruning", v, candidates)
	}
}

// TestIndexedConcurrentMutations hammers the read-committed contract under
// -race: indexed queries run against frozen snapshots while writers churn,
// so every result must be well-formed (strictly ascending ids), and once
// the storm quiesces the index must agree with the scan exactly.
func TestIndexedConcurrentMutations(t *testing.T) {
	db := memDB(t)
	populate(t, db, 5, 3, 0.4, 88)
	if _, err := db.RangeQuery(query.Range{Bin: 1, PctMin: 0, PctMax: 1}, ModeIndexed); err != nil {
		t.Fatal(err)
	}

	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := randomRanges(rng, db.cfg.Quantizer.Bins(), 1)[0]
				res, err := db.RangeQuery(q, ModeIndexed)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				for i := 1; i < len(res.IDs); i++ {
					if res.IDs[i-1] >= res.IDs[i] {
						t.Errorf("ids not strictly ascending: %v", res.IDs)
						return
					}
				}
			}
		}(int64(300 + r))
	}

	flags := dataset.Flags(4, 16, 12, 99)
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(worker int) {
			defer writers.Done()
			for i := 0; i < 20; i++ {
				id, err := db.InsertImage(fmt.Sprintf("churn-%d-%d", worker, i), flags[i%len(flags)].Img)
				if err != nil {
					t.Errorf("writer insert: %v", err)
					return
				}
				if i%2 == 0 {
					if err := db.Delete(id); err != nil {
						t.Errorf("writer delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	rng := rand.New(rand.NewSource(123))
	for qi, q := range randomRanges(rng, db.cfg.Quantizer.Bins(), 30) {
		idx, err := db.RangeQuery(q, ModeIndexed)
		if err != nil {
			t.Fatalf("query %d indexed: %v", qi, err)
		}
		scan, err := db.RangeQuery(q, ModeRBM)
		if err != nil {
			t.Fatalf("query %d scan: %v", qi, err)
		}
		if !sameIDs(idx.IDs, scan.IDs) {
			t.Fatalf("query %d %+v: indexed %v != scan %v", qi, q, idx.IDs, scan.IDs)
		}
	}
}

// TestQueryOptionsLimit covers the WithLimit option on the canonical
// entry points: the limit is a stable prefix of the sorted result.
func TestQueryOptionsLimit(t *testing.T) {
	db := memDB(t)
	populate(t, db, 4, 3, 0.3, 66)
	ctx := context.Background()
	q := query.Range{Bin: 0, PctMin: 0, PctMax: 1}
	full, err := db.RangeQueryCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.IDs) < 3 {
		t.Fatalf("want at least 3 matches, got %d", len(full.IDs))
	}
	limited, err := db.RangeQueryCtx(ctx, q, WithLimit(2), WithMode(ModeIndexed))
	if err != nil {
		t.Fatal(err)
	}
	if len(limited.IDs) != 2 || !sameIDs(limited.IDs, full.IDs[:2]) {
		t.Fatalf("limit 2: got %v, want %v", limited.IDs, full.IDs[:2])
	}
	// Zero limit means unlimited; later options win over earlier ones.
	unlimited, err := db.RangeQueryCtx(ctx, q, WithLimit(2), WithLimit(0))
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(unlimited.IDs, full.IDs) {
		t.Fatalf("limit 0: got %v, want %v", unlimited.IDs, full.IDs)
	}
}
