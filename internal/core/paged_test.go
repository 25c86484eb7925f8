package core

// The referee for paged evaluation: for every mode and query kind,
// (limit, after) must return exactly the matching slice of the unlimited
// answer — on corpora whose insertion order is not id order and whose edited
// images may have smaller ids than their bases (the shape a 16-goroutine
// loader or replication apply produces), with and without deletes and
// AppendOps, in memory and after a segmented reopen.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/colorspace"
	"repro/internal/dataset"
	"repro/internal/editops"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rbm"
	"repro/internal/store/segment"
)

// scrambledCorpus loads nBase flags and perBase scripts each under pinned
// ids drawn from a shuffled pool, so neither kind arrives in id order and
// many scripts sit below their base. The last two bases get no scripts, are
// nobody's Merge target, and are returned: they stay deletable.
func scrambledCorpus(t testing.TB, db *DB, nBase, perBase int, seed int64) []uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pool := rng.Perm(nBase*(1+perBase) + 50)
	next := func() uint64 {
		id := uint64(pool[0] + 1)
		pool = pool[1:]
		return id
	}
	ctx := context.Background()
	flags := dataset.Flags(nBase, 32, 24, seed)
	baseIDs := make([]uint64, len(flags))
	for i, f := range flags {
		id, err := db.InsertImageCtx(ctx, next(), f.Name, f.Img)
		if err != nil {
			t.Fatal(err)
		}
		baseIDs[i] = id
	}
	aug := dataset.NewAugmenter(dataset.AugmentConfig{PerBase: perBase, OpsPerImage: 4, NonWideningFrac: 0.4, Seed: seed + 1})
	below := 0
	for i, f := range flags[:nBase-2] {
		others := append(append([]uint64{}, baseIDs[:i]...), baseIDs[i+1:nBase-2]...)
		for _, seq := range aug.ScriptsFor(baseIDs[i], f.Img, others) {
			id, err := db.InsertEditedCtx(ctx, next(), f.Name+"-edit", seq)
			if err != nil {
				t.Fatal(err)
			}
			if id < baseIDs[i] {
				below++
			}
		}
	}
	if below == 0 {
		t.Fatal("corpus has no edited id below its base's")
	}
	return baseIDs[nBase-2:]
}

// pagedQuery is one query kind of the grid, runnable with any options.
type pagedQuery struct {
	name string
	run  func(db *DB, opts ...QueryOption) (*rbm.Result, error)
	// exact is a single-term query's exact test (nil for compound ones).
	exact func(*histogram.Histogram) bool
}

func pagedGrid(db *DB) []pagedQuery {
	ctx := context.Background()
	bin := func(c string) int { return mustBin(db, c) }
	red := query.Range{Bin: bin("red"), PctMin: 0.15, PctMax: 1}
	blue := query.Range{Bin: bin("blue"), PctMin: 0, PctMax: 0.2}
	white := query.Range{Bin: bin("white"), PctMin: 0.1, PctMax: 0.6}
	multi := query.MultiRange{Bins: []int{bin("red"), bin("white")}, PctMin: 0.3, PctMax: 0.9}
	compound := func(conn query.Connective, terms ...query.Range) func(*DB, ...QueryOption) (*rbm.Result, error) {
		return func(db *DB, opts ...QueryOption) (*rbm.Result, error) {
			return db.CompoundQueryCtx(ctx, query.Compound{Terms: terms, Conn: conn}, opts...)
		}
	}
	return []pagedQuery{
		{"range", func(db *DB, opts ...QueryOption) (*rbm.Result, error) { return db.RangeQueryCtx(ctx, red, opts...) }, red.MatchesExact},
		{"and", compound(query.And, red, blue), nil},
		{"or", compound(query.Or, white, red, blue), nil},
		{"multi", func(db *DB, opts ...QueryOption) (*rbm.Result, error) {
			return db.RangeQueryMultiCtx(ctx, multi, opts...)
		}, multi.MatchesExact},
	}
}

func mustBin(db *DB, color string) int {
	b, err := colorspace.BinForName(color, db.cfg.Quantizer)
	if err != nil {
		panic(err)
	}
	return b
}

// pageOf is the specification: the ids above after, cut at limit.
func pageOf(all []uint64, after uint64, limit int) []uint64 {
	out := []uint64{}
	for _, id := range all {
		if id > after && len(out) < limit {
			out = append(out, id)
		}
	}
	return out
}

func checkPagedGrid(t *testing.T, db *DB) {
	t.Helper()
	for _, mode := range AllModes() {
		for _, pq := range pagedGrid(db) {
			name := fmt.Sprintf("%v/%s", mode, pq.name)
			full, err := pq.run(db, mode)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(full.IDs) < 25 {
				t.Fatalf("%s: answer of %d ids is too short to page", name, len(full.IDs))
			}
			mid, last := full.IDs[len(full.IDs)/2], full.IDs[len(full.IDs)-1]
			for _, limit := range []int{1, 3, 20, len(full.IDs) + 7} {
				for _, after := range []uint64{0, mid, last} {
					got, err := pq.run(db, mode, WithLimit(limit), WithAfter(after))
					if err != nil {
						t.Fatalf("%s limit=%d after=%d: %v", name, limit, after, err)
					}
					if want := pageOf(full.IDs, after, limit); !sameIDs(got.IDs, want) {
						t.Fatalf("%s limit=%d after=%d: got %v, want %v", name, limit, after, got.IDs, want)
					}
				}
			}
			// A cursor alone is "everything after it".
			got, err := pq.run(db, mode, WithAfter(mid))
			if err != nil {
				t.Fatal(err)
			}
			if want := pageOf(full.IDs, mid, len(full.IDs)); !sameIDs(got.IDs, want) {
				t.Fatalf("%s after=%d unlimited: got %d ids, want %d", name, mid, len(got.IDs), len(want))
			}
			// Paging to exhaustion reassembles the unlimited answer.
			var walked []uint64
			for after := uint64(0); ; {
				page, err := pq.run(db, mode, WithLimit(7), WithAfter(after))
				if err != nil {
					t.Fatal(err)
				}
				if len(page.IDs) == 0 {
					break
				}
				walked = append(walked, page.IDs...)
				after = page.IDs[len(page.IDs)-1]
			}
			if !sameIDs(walked, full.IDs) {
				t.Fatalf("%s: pages concatenate to %d ids, unlimited answer has %d", name, len(walked), len(full.IDs))
			}
			if pq.exact != nil && mode != ModeIndexed {
				checkCensus(t, db, name, mode, pq.exact, full.Stats)
			}
		}
	}
}

// checkCensus referees an unlimited single-term scan's statistics with the
// catalog: the scan judges every live candidate exactly once, so every
// binary image is tested and every edited image walked, instantiated or
// (BWM only) skipped — and the skipped ones are exactly the widening
// members whose base satisfies the term.
func checkCensus(t *testing.T, db *DB, name string, mode Mode, exact func(*histogram.Histogram) bool, st rbm.Stats) {
	t.Helper()
	bins, edited := db.cat.Len()
	skip := 0
	for _, id := range db.EditedIDs() {
		obj, err := db.cat.Edited(id)
		if err != nil {
			t.Fatal(err)
		}
		base, err := db.cat.Binary(obj.Seq.BaseID)
		if err != nil {
			t.Fatal(err)
		}
		if mode == ModeBWM && obj.Widening && exact(base.Hist) {
			skip++
		}
	}
	if st.BinariesChecked != bins || st.EditedWalked+st.EditedSkipped != edited || st.EditedSkipped != skip {
		t.Fatalf("%s: stats %+v; the catalog holds %d binary and %d edited images, %d of them on the fast path",
			name, st, bins, edited, skip)
	}
}

// pagedMutate deletes a spread of edited images and one binary, and extends
// two surviving sequences.
func pagedMutate(t testing.TB, db *DB, spare []uint64) {
	t.Helper()
	segMutate(t, db)
	if err := db.DeleteCtx(context.Background(), spare[0]); err != nil {
		t.Fatal(err)
	}
}

func TestPagedEqualsSliceOfUnlimited(t *testing.T) {
	for _, mutate := range []bool{false, true} {
		t.Run(fmt.Sprintf("memory/mutate=%v", mutate), func(t *testing.T) {
			db := memDB(t)
			spare := scrambledCorpus(t, db, 48, 7, 11)
			if mutate {
				pagedMutate(t, db, spare)
			}
			checkPagedGrid(t, db)
		})
		t.Run(fmt.Sprintf("segmented-reopen/mutate=%v", mutate), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "paged.db")
			db := segDB(t, path, segment.Options{TargetBytes: 8 << 10})
			spare := scrambledCorpus(t, db, 48, 7, 12)
			if mutate {
				pagedMutate(t, db, spare)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db = segDB(t, path, segment.Options{TargetBytes: 8 << 10})
			defer db.Close()
			checkPagedGrid(t, db)
		})
	}
}

// Pages taken while a writer inserts and deletes stay well-formed:
// ascending, unique, within the limit. Run under -race.
func TestPagedDuringWrites(t *testing.T) {
	db := memDB(t)
	scrambledCorpus(t, db, 40, 8, 3)
	q := query.Range{Bin: mustBin(db, "red"), PctMin: 0.05, PctMax: 1}
	ctx := context.Background()

	victims := db.EditedIDs()[100:160]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		flags := dataset.Flags(4, 32, 24, 99)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Insert a base and an edit of it, then take both away again: the
			// corpus keeps its size while ids come and go at its tail.
			f := flags[i%len(flags)]
			base, err := db.InsertImageCtx(ctx, 0, f.Name, f.Img)
			if err != nil {
				t.Error(err)
				return
			}
			seq := &editops.Sequence{BaseID: base, Ops: []editops.Op{editops.Modify{Old: dataset.Blue, New: dataset.Green}}}
			edit, err := db.InsertEditedCtx(ctx, 0, f.Name+"-edit", seq)
			if err != nil {
				t.Error(err)
				return
			}
			gone := []uint64{edit, base}
			if i < len(victims) {
				gone = append(gone, victims[i]) // and thin out the middle
			}
			for _, id := range gone {
				if err := db.DeleteCtx(ctx, id); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	const limit = 300 // past the first window, so later windows run too
	for round := 0; round < 5; round++ {
		for _, mode := range []Mode{ModeBWM, ModeRBM, ModeInstantiate} {
			var prev uint64
			for after := uint64(0); ; {
				page, err := db.RangeQueryCtx(ctx, q, mode, WithLimit(limit), WithAfter(after))
				if err != nil {
					t.Fatal(err)
				}
				if len(page.IDs) > limit {
					t.Fatalf("%v: %d ids over limit %d", mode, len(page.IDs), limit)
				}
				for _, id := range page.IDs {
					if id <= prev {
						t.Fatalf("%v: id %d after %d", mode, id, prev)
					}
					prev = id
				}
				if len(page.IDs) == 0 {
					break
				}
				after = prev
			}
		}
	}
	close(stop)
	wg.Wait()
}

// A limited scan stops at the exact candidate that fills the page: it judges
// precisely the page's depth in the id stream, in every scan mode and
// whichever window the page ends in.
func TestPagedStopsAtPageEnd(t *testing.T) {
	db := memDB(t)
	scrambledCorpus(t, db, 100, 9, 5)
	ctx := context.Background()
	cands := db.cat.ObjectsAfter(nil, 0, 1<<20)
	if len(cands) <= 3*pagedFirstWindow {
		t.Fatalf("corpus of %d candidates does not reach the third window", len(cands))
	}
	rank := make(map[uint64]int, len(cands)) // 1-based position in the id stream
	for i, obj := range cands {
		rank[obj.ID] = i + 1
	}
	// The windows' last ranks: 256, 768 and 1 792.
	ends := []int{pagedFirstWindow, 3 * pagedFirstWindow, 7 * pagedFirstWindow}
	q := query.Range{Bin: mustBin(db, "red"), PctMin: 0.15, PctMax: 1}
	for _, mode := range []Mode{ModeBWM, ModeRBM, ModeInstantiate} {
		full, err := db.RangeQueryCtx(ctx, q, mode)
		if err != nil {
			t.Fatal(err)
		}
		// A page ending mid-way through the first window, and pages ending
		// at the first match of the second and of the third.
		for w, from := range []int{pagedFirstWindow / 2, ends[0], ends[1]} {
			limit := 0
			for limit < len(full.IDs) && rank[full.IDs[limit]] <= from {
				limit++
			}
			limit++
			if limit > len(full.IDs) {
				t.Fatalf("%v: no match past rank %d", mode, from)
			}
			depth := rank[full.IDs[limit-1]]
			if depth > ends[w] || (w > 0 && depth <= ends[w-1]) {
				t.Fatalf("%v limit=%d: page ends at candidate %d, outside window %d", mode, limit, depth, w+1)
			}
			got, err := db.RangeQueryCtx(ctx, q, mode, WithLimit(limit))
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(got.IDs, full.IDs[:limit]) {
				t.Fatalf("%v limit=%d: got %v, want %v", mode, limit, got.IDs, full.IDs[:limit])
			}
			if examined := got.Stats.BinariesChecked + got.Stats.EditedWalked + got.Stats.EditedSkipped; examined != depth {
				t.Fatalf("%v limit=%d: page ends at candidate %d, scan judged %d", mode, limit, depth, examined)
			}
		}
	}
}

// An unset mode is chosen by the page, for every query kind: without a
// limit it descends the S-tree and judges no scan window; under a limit it
// is the BWM scan and judges exactly the page's depth. Either way the ids
// are explicit BWM's, and the per-mode metrics count the mode that ran.
func TestDefaultModeByPage(t *testing.T) {
	db := memDB(t)
	scrambledCorpus(t, db, 30, 4, 11)
	rank := make(map[uint64]int) // 1-based position in the id stream
	for i, obj := range db.cat.ObjectsAfter(nil, 0, 1<<20) {
		rank[obj.ID] = i + 1
	}
	phases := func(tr *obs.Trace) map[string]bool {
		out := make(map[string]bool)
		for _, p := range tr.Phases() {
			out[p.Name] = true
		}
		return out
	}
	const limit = 7
	for _, pq := range pagedGrid(db) {
		bwm, err := pq.run(db, ModeBWM)
		if err != nil {
			t.Fatal(err)
		}
		if len(bwm.IDs) < 2*limit {
			t.Fatalf("%s: answer of %d ids is too short for two pages", pq.name, len(bwm.IDs))
		}

		idxCount, bwmCount := mQueryCount[ModeIndexed].Value(), mQueryCount[ModeBWM].Value()
		tr := obs.NewTrace()
		whole, err := pq.run(db, WithTrace(tr))
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(whole.IDs, bwm.IDs) {
			t.Fatalf("%s unset: %v, bwm %v", pq.name, whole.IDs, bwm.IDs)
		}
		if ph := phases(tr); ph["scan"] || !ph["indexed.stree-descend"] || tr.Get(obs.TIndexNodesVisited) == 0 {
			t.Fatalf("%s unset: phases %v, %d nodes visited; want a descent and no scan", pq.name, ph, tr.Get(obs.TIndexNodesVisited))
		}
		if dIdx, dBWM := mQueryCount[ModeIndexed].Value()-idxCount, mQueryCount[ModeBWM].Value()-bwmCount; dIdx != 1 || dBWM != 0 {
			t.Fatalf("%s unset: queries_total indexed +%d, bwm +%d; want +1, +0", pq.name, dIdx, dBWM)
		}

		after := uint64(0)
		for page := 0; page < 2; page++ {
			tr := obs.NewTrace()
			got, err := pq.run(db, WithLimit(limit), WithAfter(after), WithTrace(tr))
			if err != nil {
				t.Fatal(err)
			}
			want := bwm.IDs[page*limit : (page+1)*limit]
			if !sameIDs(got.IDs, want) {
				t.Fatalf("%s unset page %d: %v, bwm %v", pq.name, page, got.IDs, want)
			}
			// A single-term verdict counts one candidate once; a compound one
			// counts per term, so it is held to explicit BWM's page instead.
			depth := rank[want[limit-1]] - rank[after]
			if examined := got.Stats.BinariesChecked + got.Stats.EditedWalked + got.Stats.EditedSkipped; pq.exact != nil && examined != depth {
				t.Fatalf("%s unset page %d: judged %d candidates, the page is %d deep", pq.name, page, examined, depth)
			}
			bwmPage, err := pq.run(db, ModeBWM, WithLimit(limit), WithAfter(after))
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats != bwmPage.Stats {
				t.Fatalf("%s unset page %d: stats %+v, explicit bwm %+v", pq.name, page, got.Stats, bwmPage.Stats)
			}
			if ph := phases(tr); !ph["scan"] || tr.Get(obs.TIndexNodesVisited) != 0 {
				t.Fatalf("%s unset page %d: phases %v, %d nodes visited; want the scan alone", pq.name, page, ph, tr.Get(obs.TIndexNodesVisited))
			}
			after = want[limit-1]
		}
	}
}

// A paged query refuses unknown modes, invalid queries and a cancelled
// context.
func TestPagedRejects(t *testing.T) {
	db := memDB(t)
	populate(t, db, 4, 3, 0.3, 8)
	ctx := context.Background()
	q := query.Range{Bin: mustBin(db, "red"), PctMin: 0, PctMax: 1}
	if _, err := db.RangeQueryCtx(ctx, q, Mode(99), WithLimit(1)); err == nil {
		t.Fatal("unknown mode accepted under a limit")
	}
	bad := query.Range{Bin: -1, PctMin: 0, PctMax: 1}
	if _, err := db.RangeQueryCtx(ctx, bad, WithLimit(1)); err == nil {
		t.Fatal("invalid range accepted under a limit")
	}
	if _, err := db.CompoundQueryCtx(ctx, query.Compound{}, WithAfter(1)); err == nil {
		t.Fatal("empty compound accepted under a cursor")
	}
	if _, err := db.RangeQueryMultiCtx(ctx, query.MultiRange{PctMin: 0, PctMax: 1}, WithLimit(1)); err == nil {
		t.Fatal("multi-bin query without bins accepted under a limit")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := db.RangeQueryCtx(cancelled, q, WithLimit(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled paged query: %v", err)
	}
}

// A scan cancelled from inside a verdict stops within pagedCheckEvery
// further candidates, whether the cancel lands at a window's start, just
// before a check or just after one — in ModeInstantiate, where each verdict
// renders an image, and in ModeBWM.
func TestPagedScanCancelsMidWindow(t *testing.T) {
	db := memDB(t)
	scrambledCorpus(t, db, 60, 5, 3)
	if n := len(db.cat.AllIDs()); n < pagedFirstWindow+pagedCheckEvery {
		t.Fatalf("corpus of %d candidates ends inside the first window", n)
	}
	for _, mode := range []Mode{ModeInstantiate, ModeBWM} {
		for _, at := range []int{1, 2, pagedCheckEvery, pagedCheckEvery + 1, pagedFirstWindow - 1, pagedFirstWindow + 3} {
			ctx, cancel := context.WithCancel(context.Background())
			judged := 0
			count := func() {
				if judged++; judged == at {
					cancel()
				}
			}
			// One term that admits everything: each candidate costs exactly
			// one call, exact or walk, whatever its kind and the mode.
			term := pagedTerm{
				exact: func(*histogram.Histogram) bool { count(); return true },
				walk: func(_, _ *catalog.Object, _ *rbm.Stats) (bool, error) {
					count()
					return true, nil
				},
			}
			s := &pagedScan{db: db, terms: []pagedTerm{term}, conn: query.And, mode: mode, env: db.env()}
			_, err := s.run(ctx, 0, 0)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%v, cancelled at candidate %d: %v", mode, at, err)
			}
			if judged-at > pagedCheckEvery {
				t.Fatalf("%v, cancelled at candidate %d: %d further candidates judged, want at most %d", mode, at, judged-at, pagedCheckEvery)
			}
		}
	}
}
