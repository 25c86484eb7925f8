package core

import (
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/store/segment"
)

func TestCompactShrinksAfterDeletes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.esidb")
	// FanIn 2 makes the two segments below (the objects, then their
	// tombstones) an eligible run; the default waits for a third.
	db, err := Open(Config{Path: path, Segment: segment.Options{FanIn: 2}})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, db, 10, 3, 0.2, 88)
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	// Delete most edited images and half the bases.
	for _, id := range db.EditedIDs() {
		if err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	bins := db.Binaries()
	for i, id := range bins {
		if i%2 == 0 {
			if err := db.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	before, _ := db.SegmentStats()

	queriesBefore, _ := dataset.RangeWorkload(dataset.WorkloadConfig{Queries: 15, Seed: 4}, db.Quantizer())
	var want [][]uint64
	for _, q := range queriesBefore {
		res, err := db.RangeQuery(q, ModeBWM)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res.IDs)
	}

	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := db.SegmentStats()
	if after.LiveBytes >= before.LiveBytes {
		t.Fatalf("compact did not shrink the segment set: %d -> %d bytes", before.LiveBytes, after.LiveBytes)
	}
	// Database still fully usable with identical results.
	for i, q := range queriesBefore {
		res, err := db.RangeQuery(q, ModeBWM)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(res.IDs, want[i]) {
			t.Fatalf("query %d changed after compact", i)
		}
	}
	for _, id := range db.Binaries() {
		if _, err := db.Image(id); err != nil {
			t.Fatalf("raster %d lost after compact: %v", id, err)
		}
	}
	// Inserts keep working and the file persists across reopen.
	newID, err := db.InsertImage("post-compact", dataset.Flags(1, 16, 12, 1)[0].Img)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Image(newID); err != nil {
		t.Fatalf("post-compact insert lost: %v", err)
	}
}

func TestCompactMemoryDBIsNoop(t *testing.T) {
	db := memDB(t)
	populate(t, db, 2, 1, 0, 1)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactClosedDBErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.esidb")
	db, _ := Open(Config{Path: path})
	db.Close()
	if err := db.Compact(); err == nil {
		t.Fatal("compact on closed db succeeded")
	}
}

func TestRepeatedSyncDoesNotGrowUnbounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.esidb")
	db, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	populate(t, db, 5, 2, 0.2, 23)
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	first, _ := db.SegmentStats()
	for i := 0; i < 25; i++ {
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	last, _ := db.SegmentStats()
	// A Sync with nothing staged seals nothing: no segment, no bytes.
	if last.Segments != first.Segments || last.LiveBytes != first.LiveBytes || last.Seals != first.Seals {
		t.Fatalf("25 idle syncs changed the segment set: %d segments / %d bytes / %d seals -> %d / %d / %d",
			first.Segments, first.LiveBytes, first.Seals, last.Segments, last.LiveBytes, last.Seals)
	}
}
