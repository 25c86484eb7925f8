package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/colorspace"
	"repro/internal/editops"
	"repro/internal/histogram"
	"repro/internal/imaging"
	"repro/internal/query"
	"repro/internal/store"
)

// Crash-recovery harness. Each test runs a workload against a persistent
// database, kills it at an injected point (write budget, sync budget, or a
// plain Crash with no flush), reopens from disk, and asserts the
// durability contract:
//
//  1. no acknowledged write is lost,
//  2. no write is half-applied (an object is fully present or fully
//     absent, and every present edited image has its base),
//  3. CheckStore reports a structurally clean store, and
//  4. the recovered database answers queries bit-identically to an
//     uncrashed twin that saw exactly the acknowledged writes.

// crashDB opens a persistent DB in dir with the given WAL options.
func crashDB(t *testing.T, path string, wopts store.WALOptions) *DB {
	t.Helper()
	db, err := Open(Config{Path: path, WAL: wopts})
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return db
}

// tinyImg deterministically colors a small raster from its seed.
func tinyImg(seed int) *imaging.Image {
	img := imaging.New(4, 3)
	for i := range img.Pix {
		v := byte((seed*31 + i*7) % 251)
		img.Pix[i] = imaging.RGB{R: v, G: v ^ 0x55, B: 255 - v}
	}
	return img
}

// crashOp is one step of the scripted workload; apply runs it and reports
// the object id it touched (0 for none).
type crashOp struct {
	name  string
	apply func(db *DB) (uint64, error)
}

// crashWorkload is a fixed mutation script covering every WAL record type:
// binary inserts, edited inserts, a sequence update and a delete.
func crashWorkload() []crashOp {
	ops := []crashOp{
		{"insert-b1", func(db *DB) (uint64, error) { return db.InsertImageWithID(1, "b1", tinyImg(1)) }},
		{"insert-b2", func(db *DB) (uint64, error) { return db.InsertImageWithID(2, "b2", tinyImg(2)) }},
		{"insert-e3", func(db *DB) (uint64, error) {
			return db.InsertEditedWithID(3, "e3", &editops.Sequence{BaseID: 1, Ops: editops.CropTo(imaging.Rect{X0: 0, Y0: 0, X1: 2, Y1: 2})})
		}},
		{"insert-b4", func(db *DB) (uint64, error) { return db.InsertImageWithID(4, "b4", tinyImg(4)) }},
		{"append-3", func(db *DB) (uint64, error) {
			return 3, db.AppendOps(3, editops.PasteOnto(imaging.Rect{X0: 0, Y0: 0, X1: 2, Y1: 2}, 2, 1, 1))
		}},
		{"delete-4", func(db *DB) (uint64, error) { return 4, db.Delete(4) }},
		{"insert-e5", func(db *DB) (uint64, error) {
			return db.InsertEditedWithID(5, "e5", &editops.Sequence{BaseID: 2, Ops: editops.CropTo(imaging.Rect{X0: 1, Y0: 0, X1: 3, Y1: 3})})
		}},
	}
	return ops
}

// runWorkloadUntilFault applies the script until an op fails (the injected
// kill point) and returns the names of the acknowledged ops.
func runWorkloadUntilFault(db *DB) []string {
	var acked []string
	for _, op := range crashWorkload() {
		if _, err := op.apply(db); err != nil {
			break
		}
		acked = append(acked, op.name)
	}
	return acked
}

// twinForAcked replays exactly the acknowledged prefix of the script into
// a fresh in-memory database — the uncrashed twin.
func twinForAcked(t *testing.T, acked []string) *DB {
	t.Helper()
	twin := memDB(t)
	byName := crashWorkload()
	for i, name := range acked {
		if byName[i].name != name {
			t.Fatalf("acked prefix out of script order: %v", acked)
		}
		if _, err := byName[i].apply(twin); err != nil {
			t.Fatalf("twin %s: %v", name, err)
		}
	}
	return twin
}

// assertRecovered checks the recovered database against the uncrashed twin
// holding exactly the acknowledged writes. Unacknowledged writes may have
// survived whole (their WAL frame was durable before the kill) but must
// never be half-applied; since the workload is a fixed script, a surviving
// unacked prefix op makes the recovered DB equal a twin with a longer
// prefix — so the check is: recovered state equals the twin of SOME prefix
// at least as long as the acked one.
func assertRecovered(t *testing.T, rec *DB, acked []string) {
	t.Helper()
	script := crashWorkload()
	// Find the longest script prefix consistent with the recovered catalog.
	var match *DB
	var matchLen int
	for n := len(script); n >= len(acked); n-- {
		names := make([]string, n)
		for i := 0; i < n; i++ {
			names[i] = script[i].name
		}
		twin := twinForAcked(t, names)
		if sameCatalogState(rec, twin) {
			match, matchLen = twin, n
			break
		}
		twin.Close()
	}
	if match == nil {
		t.Fatalf("recovered state matches no script prefix >= acked %v (binaries %v edited %v)",
			acked, rec.Binaries(), rec.EditedIDs())
	}
	_ = matchLen

	// Structural integrity of the recovered store.
	if res, err := rec.CheckStore(); err != nil {
		t.Fatalf("CheckStore: %v", err)
	} else if !res.Ok() {
		t.Fatalf("CheckStore not clean: %+v", res)
	}

	// Half-apply check: every edited object resolves a present base.
	for _, id := range rec.EditedIDs() {
		obj, err := rec.Get(id)
		if err != nil {
			t.Fatalf("edited %d listed but not gettable: %v", id, err)
		}
		if _, err := rec.Get(obj.Seq.BaseID); err != nil {
			t.Fatalf("edited %d present without base %d", id, obj.Seq.BaseID)
		}
	}

	// Differential oracle: recovered DB answers bit-identically to the twin
	// across every execution mode and a k-NN probe.
	rng := rand.New(rand.NewSource(42))
	for qi, q := range randomRanges(rng, rec.cfg.Quantizer.Bins(), 12) {
		for _, mode := range append([]Mode{ModeInstantiate}, oracleBoundModes...) {
			got, err := rec.RangeQuery(q, mode)
			if err != nil {
				t.Fatalf("query %d mode %s on recovered: %v", qi, modeName(mode), err)
			}
			want, err := match.RangeQuery(q, mode)
			if err != nil {
				t.Fatalf("query %d mode %s on twin: %v", qi, modeName(mode), err)
			}
			if !sameIDs(got.IDs, want.IDs) {
				t.Fatalf("query %d mode %s: recovered %v, twin %v", qi, modeName(mode), got.IDs, want.IDs)
			}
		}
	}
	if len(rec.Binaries()) > 0 {
		q := query.KNN{Target: histogram.Extract(tinyImg(1), rec.cfg.Quantizer), K: 4, Metric: query.MetricL2}
		got, _, err := rec.KNNCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("knn on recovered: %v", err)
		}
		want, _, err := match.KNNCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("knn on twin: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("knn: recovered %v, twin %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("knn[%d]: recovered %+v, twin %+v", i, got[i], want[i])
			}
		}
	}
}

// sameCatalogState compares the observable object state of two databases:
// id sets, kinds, dimensions, sequences and raster pixels.
func sameCatalogState(a, b *DB) bool {
	if !sameIDs(a.Binaries(), b.Binaries()) || !sameIDs(a.EditedIDs(), b.EditedIDs()) {
		return false
	}
	for _, id := range a.Binaries() {
		ia, err1 := a.Image(id)
		ib, err2 := b.Image(id)
		if err1 != nil || err2 != nil || !ia.Equal(ib) {
			return false
		}
	}
	for _, id := range a.EditedIDs() {
		oa, err1 := a.Get(id)
		ob, err2 := b.Get(id)
		if err1 != nil || err2 != nil {
			return false
		}
		if oa.Seq.BaseID != ob.Seq.BaseID || len(oa.Seq.Ops) != len(ob.Seq.Ops) || oa.Widening != ob.Widening {
			return false
		}
	}
	return true
}

// TestCrashRecoveryFullWorkload crashes after the whole script is
// acknowledged: everything must survive without a Sync.
func TestCrashRecoveryFullWorkload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.db")
	db := crashDB(t, path, store.WALOptions{})
	acked := runWorkloadUntilFault(db)
	if len(acked) != len(crashWorkload()) {
		t.Fatalf("workload faulted without injection: acked %v", acked)
	}
	if err := db.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	rec := crashDB(t, path, store.WALOptions{})
	defer rec.Close()
	assertRecovered(t, rec, acked)

	// Recovery checkpointed: a second crash+reopen replays an empty log and
	// still sees everything (recovery idempotent across restarts).
	if st, ok := rec.WALStats(); !ok || st.Records > 1 {
		t.Fatalf("log not collapsed after recovery: %+v", st)
	}
	if err := rec.Crash(); err != nil {
		t.Fatal(err)
	}
	rec2 := crashDB(t, path, store.WALOptions{})
	defer rec2.Close()
	assertRecovered(t, rec2, acked)
}

// TestCrashMatrixWriteBudget kills the WAL write path at every byte
// position of the log stream: each budget B lets B bytes reach the file,
// tears the crossing frame, and poisons the log — then recovery runs.
func TestCrashMatrixWriteBudget(t *testing.T) {
	// Measure the full log size once to bound the sweep.
	probePath := filepath.Join(t.TempDir(), "probe.db")
	probe := crashDB(t, probePath, store.WALOptions{})
	runWorkloadUntilFault(probe)
	full, ok := probe.WALStats()
	if !ok {
		t.Fatal("no WAL on persistent DB")
	}
	probe.Crash()

	for budget := int64(0); budget <= full.SizeBytes+1; budget++ {
		budget := budget
		t.Run(fmt.Sprintf("bytes=%d", budget), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "crash.db")
			wopts := store.WALOptions{OpenFile: func(p string) (store.WALFile, error) {
				inner, err := os.OpenFile(p, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
				if err != nil {
					return nil, err
				}
				return store.NewFaultFile(inner, budget, -1), nil
			}}
			db, err := Open(Config{Path: path, WAL: wopts})
			if err != nil {
				// The budget killed the log before Open finished (header or
				// config record write): nothing was acknowledged, nothing to
				// verify beyond a clean reopen.
				if !errors.Is(err, store.ErrInjectedFault) {
					t.Fatalf("Open: %v", err)
				}
				rec := crashDB(t, path, store.WALOptions{})
				defer rec.Close()
				assertRecovered(t, rec, nil)
				return
			}
			acked := runWorkloadUntilFault(db)
			db.Crash()
			rec := crashDB(t, path, store.WALOptions{})
			defer rec.Close()
			assertRecovered(t, rec, acked)
		})
	}
}

// TestCrashMatrixSyncBudget kills the WAL at every fsync count: commits
// past the budget are never acknowledged, but their frames may have
// reached the file — they must survive whole or not at all.
func TestCrashMatrixSyncBudget(t *testing.T) {
	for budget := int64(0); budget <= 10; budget++ {
		budget := budget
		t.Run(fmt.Sprintf("syncs=%d", budget), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "crash.db")
			wopts := store.WALOptions{MaxBatch: 1, OpenFile: func(p string) (store.WALFile, error) {
				inner, err := os.OpenFile(p, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
				if err != nil {
					return nil, err
				}
				return store.NewFaultFile(inner, -1, budget), nil
			}}
			db, err := Open(Config{Path: path, WAL: wopts})
			if err != nil {
				if !errors.Is(err, store.ErrInjectedFault) {
					t.Fatalf("Open: %v", err)
				}
				rec := crashDB(t, path, store.WALOptions{})
				defer rec.Close()
				assertRecovered(t, rec, nil)
				return
			}
			acked := runWorkloadUntilFault(db)
			db.Crash()
			rec := crashDB(t, path, store.WALOptions{})
			defer rec.Close()
			assertRecovered(t, rec, acked)
		})
	}
}

// TestWALReplayIdempotentProperty applies randomized logical record
// streams once and twice to twin databases: the states must be identical
// (replaying a log over a state that already absorbed it is a no-op).
func TestWALReplayIdempotentProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var payloads [][]byte
			nextID := uint64(1)
			var binaries, edited []uint64
			baseOf := map[uint64]uint64{} // edited id -> its immutable base
			crop := func(x1, y1 int) []editops.Op {
				return editops.CropTo(imaging.Rect{X0: 0, Y0: 0, X1: x1, Y1: y1})
			}
			for i := 0; i < 20; i++ {
				switch r := rng.Intn(10); {
				case r < 4 || len(binaries) == 0:
					payloads = append(payloads, encodeWALInsertBinary(nextID, fmt.Sprintf("b%d", nextID), tinyImg(int(nextID))))
					binaries = append(binaries, nextID)
					nextID++
				case r < 7:
					base := binaries[rng.Intn(len(binaries))]
					seq := &editops.Sequence{BaseID: base, Ops: crop(2, 2)}
					payloads = append(payloads, encodeWALInsertEdited(nextID, fmt.Sprintf("e%d", nextID), seq))
					edited = append(edited, nextID)
					baseOf[nextID] = base
					nextID++
				case r < 9 && len(edited) > 0:
					// An update record replaces the sequence but keeps the
					// image's original base (the catalog forbids re-basing).
					id := edited[rng.Intn(len(edited))]
					seq := &editops.Sequence{BaseID: baseOf[id], Ops: crop(3, 2)}
					payloads = append(payloads, encodeWALUpdateSeq(id, seq))
				case len(edited) > 0:
					// Delete the newest edited id (keeps base references valid).
					id := edited[len(edited)-1]
					edited = edited[:len(edited)-1]
					payloads = append(payloads, encodeWALDelete(id))
				}
			}
			once := memDB(t)
			twice := memDB(t)
			apply := func(db *DB, rounds int) {
				for r := 0; r < rounds; r++ {
					for pi, p := range payloads {
						if _, _, err := db.applyWALRecord(p, false); err != nil {
							t.Fatalf("round %d record %d: %v", r, pi, err)
						}
					}
				}
			}
			apply(once, 1)
			apply(twice, 2)
			if !sameCatalogState(once, twice) {
				t.Fatalf("replay twice diverged: once binaries %v edited %v, twice %v %v",
					once.Binaries(), once.EditedIDs(), twice.Binaries(), twice.EditedIDs())
			}
		})
	}
}

// TestCompactStaleWALReplay simulates a crash in Compact's window between
// the file rename and the log truncation: the stale log (whose records the
// compacted file already absorbed) is replayed over the newer state and
// must change nothing.
func TestCompactStaleWALReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.db")
	db := crashDB(t, path, store.WALOptions{})
	if got := runWorkloadUntilFault(db); len(got) != len(crashWorkload()) {
		t.Fatalf("workload faulted: %v", got)
	}
	// Snapshot the pre-compact log, then compact (which checkpoints it).
	walBytes, err := os.ReadFile(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Resurrect the stale log — exactly what a crash before the truncate
	// leaves behind — and recover.
	if err := os.WriteFile(path+".wal", walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := crashDB(t, path, store.WALOptions{})
	defer rec.Close()
	acked := make([]string, len(crashWorkload()))
	for i, op := range crashWorkload() {
		acked[i] = op.name
	}
	assertRecovered(t, rec, acked)
}

// TestRecoveryAdoptsQuantizer covers the never-checkpointed case: a DB
// created with a non-default quantizer crashes before any Sync, so the
// store has no catalog record and the quantizer is known only to the WAL's
// config record. A defaulted reopen must adopt it.
func mustQuantizer(t *testing.T, name string) colorspace.Quantizer {
	t.Helper()
	q, err := colorspace.ParseQuantizer(name)
	if err != nil {
		t.Fatalf("ParseQuantizer(%s): %v", name, err)
	}
	return q
}

func TestRecoveryAdoptsQuantizer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "adopt.db")
	db, err := Open(Config{Path: path, Quantizer: mustQuantizer(t, "rgb3")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertImageWithID(1, "b1", tinyImg(1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	rec := crashDB(t, path, store.WALOptions{})
	defer rec.Close()
	if got := rec.Quantizer().Name(); got != "rgb3" {
		t.Fatalf("recovered quantizer %q, want rgb3", got)
	}
	if !sameIDs(rec.Binaries(), []uint64{1}) {
		t.Fatalf("recovered binaries %v", rec.Binaries())
	}
}

// TestRecoveryRejectsMismatchedQuantizer: an explicitly configured
// quantizer that contradicts the log's config record is an error, not a
// silent adoption.
func TestRecoveryRejectsMismatchedQuantizer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mismatch.db")
	db, err := Open(Config{Path: path, Quantizer: mustQuantizer(t, "rgb3")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertImageWithID(1, "b1", tinyImg(1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Path: path, Quantizer: mustQuantizer(t, "rgb5")}); err == nil {
		t.Fatal("mismatched quantizer accepted")
	}
}

// TestCtxCancelledInsertMayStillCommit pins the documented contract: a
// durability wait abandoned at ctx-cancel does not un-apply the write.
func TestCtxCancelledInsertMayStillCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cancel.db")
	db := crashDB(t, path, store.WALOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	id, err := db.InsertImageCtx(ctx, 0, "b", tinyImg(9))
	if err == nil {
		t.Log("commit won the race with cancellation; fine")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("InsertImageCtx: %v", err)
	}
	if _, gerr := db.Get(id); gerr != nil {
		t.Fatalf("cancelled insert not applied: %v", gerr)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rec := crashDB(t, path, store.WALOptions{})
	defer rec.Close()
	if _, err := rec.Get(id); err != nil && !errors.Is(err, catalog.ErrNotFound) {
		t.Fatalf("Get after reopen: %v", err)
	}
}

// populate/dataset-based end-to-end: a realistic augmented corpus crashes
// and recovers, and the recovered answers match a twin built the same way.
func TestCrashRecoveryAugmentedCorpus(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.db")
	db := crashDB(t, path, store.WALOptions{})
	populate(t, db, 4, 3, 0.4, 7)
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	rec := crashDB(t, path, store.WALOptions{})
	defer rec.Close()
	twin := memDB(t)
	populate(t, twin, 4, 3, 0.4, 7)
	if !sameCatalogState(rec, twin) {
		t.Fatalf("recovered corpus diverged: %v vs %v", rec.Binaries(), twin.Binaries())
	}
	rng := rand.New(rand.NewSource(7))
	for qi, q := range randomRanges(rng, rec.cfg.Quantizer.Bins(), 25) {
		for _, mode := range append([]Mode{ModeInstantiate}, oracleBoundModes...) {
			got, err := rec.RangeQuery(q, mode)
			if err != nil {
				t.Fatalf("query %d %s recovered: %v", qi, modeName(mode), err)
			}
			want, err := twin.RangeQuery(q, mode)
			if err != nil {
				t.Fatalf("query %d %s twin: %v", qi, modeName(mode), err)
			}
			if !sameIDs(got.IDs, want.IDs) {
				t.Fatalf("query %d %s: recovered %v twin %v", qi, modeName(mode), got.IDs, want.IDs)
			}
		}
	}
}
