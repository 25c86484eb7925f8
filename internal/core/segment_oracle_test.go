package core

// Differential oracle for the storage engine: a persistent database fed a
// mutation script, synced, extended, closed and reopened must answer every
// query mode bit-identically to an in-memory twin that saw the same
// script. Three engine configurations (default sizing, tiny segments,
// background maintenance) times fifty random ranges give 150 combinations,
// each checked across every bound-based mode plus instantiation.

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/editops"
	"repro/internal/imaging"
	"repro/internal/store/segment"
)

// segDB opens a persistent database at path with the given engine options.
func segDB(t testing.TB, path string, opts segment.Options) *DB {
	t.Helper()
	db, err := Open(Config{Path: path, Segment: opts})
	if err != nil {
		t.Fatalf("Open %s: %v", path, err)
	}
	return db
}

// segMutate applies the same deterministic mutation script to a database:
// delete a spread of edited images (tombstones), then extend two surviving
// sequences (the re-stage path: the newer entry shadows the sealed one).
func segMutate(t testing.TB, db *DB) {
	t.Helper()
	ctx := context.Background()
	edited := db.EditedIDs()
	for i := 0; i < len(edited); i += 5 {
		if err := db.DeleteCtx(ctx, edited[i]); err != nil {
			t.Fatalf("delete edited %d: %v", edited[i], err)
		}
	}
	bases := db.Binaries()
	if len(bases) == 0 {
		return
	}
	appended := 0
	for _, id := range db.EditedIDs() {
		if appended == 2 {
			break
		}
		ops := editops.PasteOnto(imaging.Rect{X0: 0, Y0: 0, X1: 2, Y1: 2}, bases[0], 0, 0)
		if err := db.AppendOpsCtx(ctx, id, ops); err != nil {
			t.Fatalf("append ops to %d: %v", id, err)
		}
		appended++
	}
}

func TestSegmentOracleDifferential(t *testing.T) {
	ctx := context.Background()
	// Each configuration seals its own way, and the seal count before the
	// close tells them apart: defaults seal once, at the Sync; tiny
	// segments seal whenever a write leaves the memtable past TargetBytes
	// (the sealer is the test's: without a background one nothing seals
	// on size), so reads span many segments and tombstones; background
	// seals on size by itself before the Sync seals again.
	configs := []struct {
		name       string
		opts       segment.Options
		sealOnSize bool
		minSeals   int64
		maxSeals   int64 // 0: no cap
	}{
		{"defaults", segment.Options{}, false, 1, 1},
		{"tiny-segments", segment.Options{TargetBytes: 4 << 10}, true, 5, 0},
		{"background", segment.Options{TargetBytes: 8 << 10, Background: true, RateBytesPerSec: 8 << 20}, false, 2, 0},
	}
	for _, tc := range configs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ref := memDB(t)
			path := filepath.Join(t.TempDir(), "seg.db")
			db := segDB(t, path, tc.opts)
			closed := false
			defer func() {
				if !closed {
					db.Close()
				}
			}()
			seals := func() int64 {
				st, _ := db.SegmentStats()
				return st.Seals
			}
			written := func() {
				if st, _ := db.SegmentStats(); tc.sealOnSize && st.MemtableBytes >= tc.opts.TargetBytes {
					if err := db.Sync(); err != nil {
						t.Fatalf("size seal: %v", err)
					}
				}
			}

			// Identical scripts: populate, mutate, seal, extend.
			populate(t, ref, 6, 4, 0.4, 7)
			populateEach(t, db, 6, 4, 0.4, 7, written)
			if tc.opts.Background {
				// The first populate is past TargetBytes: the background
				// sealer must seal it without being asked.
				for deadline := time.Now().Add(5 * time.Second); seals() == 0; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("the background sealer sealed nothing past TargetBytes")
					}
				}
			}
			segMutate(t, ref)
			segMutate(t, db)
			written()
			if err := db.Sync(); err != nil { // seal: reads now span segments
				t.Fatalf("Sync: %v", err)
			}
			populate(t, ref, 3, 2, 0.5, 107)
			populateEach(t, db, 3, 2, 0.5, 107, written)
			if n := seals(); n < tc.minSeals || tc.maxSeals > 0 && n > tc.maxSeals {
				t.Fatalf("%d seals before the close, want %d..%d (0: no cap)", n, tc.minSeals, tc.maxSeals)
			}

			// Close and reopen: the reopened store must rebuild the catalog,
			// BWM components purely from segments plus WAL tail.
			if err := db.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			db = segDB(t, path, tc.opts)
			closed = false
			defer db.Close()

			if !sameCatalogState(db, ref) {
				t.Fatal("reopened segmented catalog diverges from twin")
			}
			if res, err := db.CheckStore(); err != nil || !res.Ok() {
				t.Fatalf("CheckStore: %+v err=%v", res, err)
			}

			rng := rand.New(rand.NewSource(99))
			modes := append([]Mode{ModeInstantiate}, oracleBoundModes...)
			for qi, q := range randomRanges(rng, db.cfg.Quantizer.Bins(), 50) {
				for _, mode := range modes {
					got, err := db.RangeQueryCtx(ctx, q, mode)
					if err != nil {
						t.Fatalf("query %d mode %s segmented: %v", qi, modeName(mode), err)
					}
					want, err := ref.RangeQueryCtx(ctx, q, mode)
					if err != nil {
						t.Fatalf("query %d mode %s twin: %v", qi, modeName(mode), err)
					}
					if !sameIDs(got.IDs, want.IDs) {
						t.Fatalf("query %d (bin=%d pct=[%.3f,%.3f]) mode %s: segmented %v, twin %v",
							qi, q.Bin, q.PctMin, q.PctMax, modeName(mode), got.IDs, want.IDs)
					}
				}
			}

			// The answers must have come through sealed segments — otherwise
			// the oracle proved nothing about the engine's read path.
			if st, ok := db.SegmentStats(); !ok || st.Segments == 0 {
				t.Fatalf("no sealed segment behind the reopened database: %+v ok=%v", st, ok)
			}
		})
	}
}

// TestSegmentStatsAndCompact covers the online Compact path and the stats
// surfaces of a segmented database: Compact must merge the segment stack
// without losing objects, and DBStats/CheckStore must report through the
// segment engine.
func TestSegmentStatsAndCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.db")
	db := segDB(t, path, segment.Options{TargetBytes: 2 << 10})
	defer db.Close()
	// Three seals of the same size tier: a run of the engine's fan-in.
	for seed := int64(11); seed < 14; seed++ {
		populate(t, db, 4, 3, 0.3, seed)
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	before := db.EditedIDs()
	if err := db.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Persistent || st.Segment == nil {
		t.Fatalf("segmented DBStats not persistent or missing segment block: %+v", st)
	}
	if st.Segment.Compactions == 0 || st.Segment.Segments != 1 {
		t.Fatalf("compact left %d segments after %d merges; want one merge into 1", st.Segment.Segments, st.Segment.Compactions)
	}
	if !sameIDs(db.EditedIDs(), before) {
		t.Fatal("Compact changed the visible edited set")
	}
	res, err := db.CheckStore()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("CheckStore after compact: %+v", res)
	}
	if res.Segments != st.Segment.Segments {
		t.Fatalf("CheckStore segments %d != live segments %d", res.Segments, st.Segment.Segments)
	}
}
