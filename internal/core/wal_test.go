package core

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/store"
)

// TestWALConfigRecordRidesFirstWrite pins that the configuration record a
// fresh or checkpointed log is seeded with costs no fsync of its own: a
// query's commit barrier finds nothing to wait for, and the first write's
// fsync makes the record durable along with the write.
func TestWALConfigRecordRidesFirstWrite(t *testing.T) {
	ctx := context.Background()
	db, err := Open(Config{Path: filepath.Join(t.TempDir(), "wal.db")})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	stats := func(when string) store.WALStats {
		t.Helper()
		// A query runs the commit barrier: it would wait for (and so
		// cause) an fsync of anything still pending.
		if _, err := db.RangeQueryCtx(ctx, query.Range{Bin: 0, PctMin: 0, PctMax: 1}, ModeBWM); err != nil {
			t.Fatal(err)
		}
		st, ok := db.WALStats()
		if !ok {
			t.Fatal("file-backed database reports no WAL")
		}
		t.Logf("%s: %+v", when, st)
		return st
	}
	if st := stats("fresh"); st.Records != 1 || st.Fsyncs != 0 {
		t.Fatalf("fresh log: %d records, %d fsyncs; want the configuration record and no fsync", st.Records, st.Fsyncs)
	}
	img := dataset.Flags(1, 8, 8, 1)[0].Img
	if _, err := db.InsertImageCtx(ctx, 0, "first", img); err != nil {
		t.Fatal(err)
	}
	if st := stats("first write"); st.Records != 2 || st.Fsyncs != 1 || st.DurableLSN != st.LastLSN {
		t.Fatalf("after the first write: %d records, %d fsyncs, durable %d of %d; want one fsync covering both records",
			st.Records, st.Fsyncs, st.DurableLSN, st.LastLSN)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := stats("checkpointed"); st.Checkpoints == 0 || st.Records != 1 || st.Fsyncs != 1 {
		t.Fatalf("after a checkpoint: %d checkpoints, %d records, %d fsyncs; want the re-seeded record and no new fsync",
			st.Checkpoints, st.Records, st.Fsyncs)
	}
}
