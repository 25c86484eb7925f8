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

	"repro/internal/colorspace"
	"repro/internal/dataset"
	"repro/internal/editops"
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
}

func pagedGrid(db *DB) []pagedQuery {
	ctx := context.Background()
	bin := func(c string) int { return mustBin(db, c) }
	red := query.Range{Bin: bin("red"), PctMin: 0.15, PctMax: 1}
	blue := query.Range{Bin: bin("blue"), PctMin: 0, PctMax: 0.2}
	white := query.Range{Bin: bin("white"), PctMin: 0.1, PctMax: 0.6}
	compound := func(conn query.Connective, terms ...query.Range) func(*DB, ...QueryOption) (*rbm.Result, error) {
		return func(db *DB, opts ...QueryOption) (*rbm.Result, error) {
			return db.CompoundQueryCtx(ctx, query.Compound{Terms: terms, Conn: conn}, opts...)
		}
	}
	return []pagedQuery{
		{"range", func(db *DB, opts ...QueryOption) (*rbm.Result, error) { return db.RangeQueryCtx(ctx, red, opts...) }},
		{"and", compound(query.And, red, blue)},
		{"or", compound(query.Or, white, red, blue)},
		{"multi", func(db *DB, opts ...QueryOption) (*rbm.Result, error) {
			return db.RangeQueryMultiCtx(ctx, query.MultiRange{Bins: []int{bin("red"), bin("white")}, PctMin: 0.3, PctMax: 0.9}, opts...)
		}},
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
			// A page that cannot be filled judged every candidate once, so for
			// one term its statistics are the set-at-a-time strategy's own.
			if pq.name == "range" && mode != ModeIndexed {
				whole, err := pq.run(db, mode, WithLimit(len(full.IDs)+7))
				if err != nil {
					t.Fatal(err)
				}
				if whole.Stats != full.Stats {
					t.Fatalf("%s: exhausted page stats %+v, unlimited %+v", name, whole.Stats, full.Stats)
				}
			}
		}
	}
}

// pagedMutate deletes a spread of edited images and one binary, and extends
// two surviving sequences.
func pagedMutate(t testing.TB, db *DB, spare []uint64) {
	t.Helper()
	segMutate(t, db)
	if err := db.Delete(spare[0]); err != nil {
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
	db, err := Open(Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
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
			base, err := db.InsertImage(f.Name, f.Img)
			if err != nil {
				t.Error(err)
				return
			}
			seq := &editops.Sequence{BaseID: base, Ops: []editops.Op{editops.Modify{Old: dataset.Blue, New: dataset.Green}}}
			edit, err := db.InsertEdited(f.Name+"-edit", seq)
			if err != nil {
				t.Error(err)
				return
			}
			gone := []uint64{edit, base}
			if i < len(victims) {
				gone = append(gone, victims[i]) // and thin out the middle
			}
			for _, id := range gone {
				if err := db.Delete(id); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	const limit = 300 // past the serial first window, so parallel windows run too
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

// A page whose last id lies inside a parallel window is exact, and the scan
// stops near that id instead of judging the window out: the cost of a deep
// page follows its depth, not the window it happens to end in.
func TestPagedStopsInsideParallelWindow(t *testing.T) {
	db, err := Open(Config{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	scrambledCorpus(t, db, 100, 9, 5)
	ctx := context.Background()
	cands := db.cat.ObjectsAfter(0, 1<<20)
	if len(cands) <= 3*pagedFirstWindow {
		t.Fatalf("corpus of %d candidates does not reach the third window", len(cands))
	}
	rank := make(map[uint64]int, len(cands)) // 1-based position in the id stream
	for i, obj := range cands {
		rank[obj.ID] = i + 1
	}
	q := query.Range{Bin: mustBin(db, "red"), PctMin: 0.15, PctMax: 1}
	for _, mode := range []Mode{ModeBWM, ModeRBM, ModeInstantiate} {
		full, err := db.RangeQueryCtx(ctx, q, mode)
		if err != nil {
			t.Fatal(err)
		}
		// The first match of the second window (ranks 257–768) and of the third
		// (769–1 792), each as the last id of its page.
		for _, from := range []int{pagedFirstWindow, 3 * pagedFirstWindow} {
			limit := 0
			for limit < len(full.IDs) && rank[full.IDs[limit]] <= from {
				limit++
			}
			limit++
			if limit > len(full.IDs) {
				t.Fatalf("%v: no match past rank %d", mode, from)
			}
			depth := rank[full.IDs[limit-1]]
			// Past the page's last id only candidates already in a worker's
			// hands are judged. How many that is depends on scheduling, so the
			// best of a few runs is held to a quarter of the smaller window.
			best := len(cands)
			for try := 0; try < 5; try++ {
				got, err := db.RangeQueryCtx(ctx, q, mode, WithLimit(limit))
				if err != nil {
					t.Fatal(err)
				}
				if !sameIDs(got.IDs, full.IDs[:limit]) {
					t.Fatalf("%v limit=%d: got %v, want %v", mode, limit, got.IDs, full.IDs[:limit])
				}
				examined := got.Stats.BinariesChecked + got.Stats.EditedWalked + got.Stats.EditedSkipped
				if examined < depth {
					t.Fatalf("%v limit=%d: page ends at candidate %d, scan judged only %d", mode, limit, depth, examined)
				}
				best = min(best, examined)
			}
			if best > depth+pagedFirstWindow/2 {
				t.Fatalf("%v limit=%d: page ends at candidate %d, scan judged %d", mode, limit, depth, best)
			}
		}
	}
}

// pagedWindow's bound is the need-th smallest matching position, moves only
// down, and never hides a position at or below itself.
func TestPagedWindowBound(t *testing.T) {
	w := newPagedWindow(10, 2)
	w.hit(7)
	if w.past(9) {
		t.Fatal("one match of two already bounds the page")
	}
	w.hit(3)
	if w.past(7) || !w.past(8) {
		t.Fatalf("matches at 3 and 7, need 2: bound %d, want 7", w.last.Load())
	}
	w.hit(5)
	if w.past(5) || !w.past(6) {
		t.Fatalf("matches at 3, 5, 7, need 2: bound %d, want 5", w.last.Load())
	}
	// A window that cannot fill the page hides nothing.
	for _, need := range []int{0, -3, 11} {
		w := newPagedWindow(10, need)
		for i := 0; i < 10; i++ {
			w.hit(i)
		}
		if w.past(9) {
			t.Fatalf("need=%d: window of 10 skipped a position", need)
		}
	}
}

// The paged path refuses what the set-at-a-time path refuses: unknown
// modes, invalid queries, a cancelled context.
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
