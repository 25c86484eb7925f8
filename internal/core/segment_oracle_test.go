package core

// Differential oracle for the storage engine: a persistent database fed a
// mutation script, synced, extended, closed and reopened must answer every
// query mode bit-identically to an in-memory twin that saw the same
// script. Four engine configurations (default sizing, tiny segments
// forcing many seals, lean blooms with an aggressive compactor, background
// maintenance) times fifty random ranges give 200 combinations, each
// checked across every bound-based mode plus instantiation.

import (
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
	edited := db.EditedIDs()
	for i := 0; i < len(edited); i += 5 {
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
		if appended == 2 {
			break
		}
		ops := editops.PasteOnto(imaging.Rect{X0: 0, Y0: 0, X1: 2, Y1: 2}, bases[0], 0, 0)
		if err := db.AppendOps(id, ops); err != nil {
			t.Fatalf("append ops to %d: %v", id, err)
		}
		appended++
	}
}

func TestSegmentOracleDifferential(t *testing.T) {
	configs := []struct {
		name string
		opts segment.Options
	}{
		{"defaults", segment.Options{}},
		{"tiny-segments", segment.Options{TargetBytes: 4 << 10}},
		{"lean-bloom", segment.Options{TargetBytes: 2 << 10, BloomBitsPerKey: 4, SummaryEvery: 2, FanIn: 2, MaxSegments: 3}},
		{"background", segment.Options{TargetBytes: 8 << 10, Background: true, CompactEvery: 5 * time.Millisecond, RateBytesPerSec: 8 << 20}},
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

			// Identical scripts: populate, mutate, seal, extend.
			populate(t, ref, 6, 4, 0.4, 7)
			populate(t, db, 6, 4, 0.4, 7)
			segMutate(t, ref)
			segMutate(t, db)
			if err := db.Sync(); err != nil { // seal: reads now span segments
				t.Fatalf("Sync: %v", err)
			}
			populate(t, ref, 3, 2, 0.5, 107)
			populate(t, db, 3, 2, 0.5, 107)

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
					got, err := db.RangeQuery(q, mode)
					if err != nil {
						t.Fatalf("query %d mode %s segmented: %v", qi, modeName(mode), err)
					}
					want, err := ref.RangeQuery(q, mode)
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
	db := segDB(t, path, segment.Options{TargetBytes: 2 << 10, FanIn: 2, MaxSegments: 2})
	defer db.Close()
	populate(t, db, 4, 3, 0.3, 11)
	before := db.EditedIDs()
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
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
	if st.Segment.Compactions == 0 && st.Segment.Segments > 1 {
		t.Fatalf("compact left %d segments with no merge recorded", st.Segment.Segments)
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
