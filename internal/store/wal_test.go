package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func openTestWAL(t *testing.T, path string, opts WALOptions) (*WAL, []WALRecord) {
	t.Helper()
	w, recs, err := OpenWAL(path, opts)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	return w, recs
}

func appendWait(t *testing.T, w *WAL, payload []byte) {
	t.Helper()
	tk, err := w.Append(payload)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := tk.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// tearWALTail appends half a frame (7 bytes) to a closed log: the bytes a
// crash mid-append leaves, which the next OpenWAL truncates away.
func tearWALTail(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte{9, 0, 0, 0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	w, recs := openTestWAL(t, path, WALOptions{})
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	want := [][]byte{[]byte("one"), []byte("two"), {}, []byte("four-longer-payload")}
	for _, p := range want {
		appendWait(t, w, p)
	}
	st := w.Stats()
	if st.Records != int64(len(want)) || st.LastLSN != uint64(len(want)) {
		t.Fatalf("stats %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2, recs2 := openTestWAL(t, path, WALOptions{})
	defer w2.Close()
	if len(recs2) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs2), len(want))
	}
	for i, r := range recs2 {
		if string(r.Payload) != string(want[i]) {
			t.Fatalf("record %d = %q, want %q", i, r.Payload, want[i])
		}
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d LSN = %d", i, r.LSN)
		}
	}
	// Appends continue past the replayed LSNs.
	appendWait(t, w2, []byte("five"))
	if got := w2.Stats().LastLSN; got != uint64(len(want)+1) {
		t.Fatalf("LastLSN after replayed append = %d", got)
	}
}

func TestWALCheckpointTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	w, _ := openTestWAL(t, path, WALOptions{})
	appendWait(t, w, []byte("committed"))
	if err := w.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if !w.Empty() {
		t.Fatal("log not empty after checkpoint")
	}
	appendWait(t, w, []byte("after"))
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	w2, recs := openTestWAL(t, path, WALOptions{})
	defer w2.Close()
	if len(recs) != 1 || string(recs[0].Payload) != "after" {
		t.Fatalf("replay after checkpoint = %v", recs)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	w, _ := openTestWAL(t, path, WALOptions{})
	appendWait(t, w, []byte("intact-one"))
	appendWait(t, w, []byte("intact-two"))
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	tearWALTail(t, path)
	before, _ := os.Stat(path)

	w2, recs := openTestWAL(t, path, WALOptions{})
	if len(recs) != 2 {
		t.Fatalf("replayed %d records past torn tail", len(recs))
	}
	if w2.Stats().TornBytes != 7 {
		t.Fatalf("TornBytes = %d", w2.Stats().TornBytes)
	}
	after, _ := os.Stat(path)
	if after.Size() != before.Size()-7 {
		t.Fatalf("tail not truncated: %d -> %d", before.Size(), after.Size())
	}
	// The log stays appendable at the truncated offset.
	appendWait(t, w2, []byte("three"))
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs3 := openTestWAL(t, path, WALOptions{})
	if len(recs3) != 3 {
		t.Fatalf("after truncate+append replayed %d", len(recs3))
	}
}

func TestWALBitFlipStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	w, _ := openTestWAL(t, path, WALOptions{})
	appendWait(t, w, []byte("aaaa"))
	appendWait(t, w, []byte("bbbb"))
	appendWait(t, w, []byte("cccc"))
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit in the second frame.
	frame := walFrameOverhead + 4
	data[len(walMagic)+frame+12] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, recs := openTestWAL(t, path, WALOptions{})
	defer w2.Close()
	if len(recs) != 1 || string(recs[0].Payload) != "aaaa" {
		t.Fatalf("replay past flipped bit: %v", recs)
	}
}

// TestWALGroupCommitBatches holds one writer's fsync in flight while 31
// more append: the flusher then covers all 31 with one fsync, so 32
// commits cost exactly 2.
func TestWALGroupCommitBatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	w, release := openGatedWAL(t, path)
	defer w.Close()
	defer close(release) // runs first: a failed test leaves no Sync parked for Close
	first, err := w.Append([]byte("w-00"))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	waitBatchTaken(t, w)
	const writers = 32
	tks := []*WALTicket{first}
	for i := 1; i < writers; i++ {
		tk, err := w.Append([]byte(fmt.Sprintf("w-%02d", i)))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		tks = append(tks, tk)
	}
	release <- struct{}{} // the first writer's fsync
	release <- struct{}{} // one fsync for the other 31
	for i, tk := range tks {
		if err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
		want := writers - 1
		if i == 0 {
			want = 1
		}
		if tk.batch != want {
			t.Fatalf("writer %d rode a batch of %d, want %d", i, tk.batch, want)
		}
	}
	if st := w.Stats(); st.Records != writers || st.Fsyncs != 2 {
		t.Fatalf("records/fsyncs = %d/%d, want %d/2", st.Records, st.Fsyncs, writers)
	}
}

func TestWALFaultFileWriteBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	// Budget admits the header plus one full frame plus a few bytes of the
	// second — the second frame lands torn.
	frameLen := int64(walFrameOverhead + 4)
	budget := int64(len(walMagic)) + frameLen + 5
	var ff *FaultFile
	opts := WALOptions{OpenFile: func(p string) (WALFile, error) {
		inner, err := os.OpenFile(p, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		ff = NewFaultFile(inner, budget, -1)
		return ff, nil
	}}
	w, _ := openTestWAL(t, path, opts)
	appendWait(t, w, []byte("okay"))
	if _, err := w.Append([]byte("dead")); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("Append past budget = %v, want injected fault", err)
	}
	if !ff.Dead() {
		t.Fatal("fault file not dead")
	}
	// Everything after the kill point fails fast.
	if _, err := w.Append([]byte("more")); err == nil {
		t.Fatal("Append on poisoned log succeeded")
	}
	w.Abandon()

	// Recovery: the intact first frame survives, the torn second is cut.
	w2, recs := openTestWAL(t, path, WALOptions{})
	defer w2.Close()
	if len(recs) != 1 || string(recs[0].Payload) != "okay" {
		t.Fatalf("recovered %v", recs)
	}
	if w2.Stats().TornBytes != 5 {
		t.Fatalf("TornBytes = %d", w2.Stats().TornBytes)
	}
}

func TestWALFaultFileSyncBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	opts := WALOptions{OpenFile: func(p string) (WALFile, error) {
		inner, err := os.OpenFile(p, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		return NewFaultFile(inner, -1, 1), nil
	}}
	w, _ := openTestWAL(t, path, opts)
	appendWait(t, w, []byte("first")) // consumes the one allowed sync
	tk, err := w.Append([]byte("second"))
	if err == nil {
		err = tk.Wait(context.Background())
	}
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("second commit = %v, want injected fault", err)
	}
	w.Abandon()
	// Both frames reached the file (only the sync failed), so both replay:
	// an unacknowledged write may survive — it must just never half-apply.
	_, recs := openTestWAL(t, path, WALOptions{})
	if len(recs) != 2 {
		t.Fatalf("recovered %d records", len(recs))
	}
}

func TestWALTicketWaitCancel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	// The fsync is held, so the commit is still pending when the ctx fires.
	w, release := openGatedWAL(t, path)
	defer w.Close()
	defer close(release)
	tk, err := w.Append([]byte("slow"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := tk.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait = %v", err)
	}
}

// TestWALLSNMonotonicAcrossCheckpointRestart pins the replication LSN
// contract: a checkpoint followed by a clean restart must not restart the
// LSN space at 1 — follower cursors are LSNs into this log, and a
// restarted sequence would let a stale cursor falsely satisfy semi-sync
// acks and silently skip the new incarnation's frames.
func TestWALLSNMonotonicAcrossCheckpointRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	w, _ := openTestWAL(t, path, WALOptions{})
	for i := 0; i < 3; i++ {
		appendWait(t, w, []byte{byte(i)})
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2, recs := openTestWAL(t, path, WALOptions{})
	defer w2.Close()
	if len(recs) != 0 {
		t.Fatalf("replayed %d records from a checkpointed log", len(recs))
	}
	st := w2.Stats()
	if st.LastLSN != 3 || st.BaseLSN != 3 || st.DurableLSN != 3 {
		t.Fatalf("restart lost the LSN floor: %+v", st)
	}
	appendWait(t, w2, []byte("after-restart"))
	if got := w2.Stats().LastLSN; got != 4 {
		t.Fatalf("post-restart LSN = %d, want 4", got)
	}
	// A follower parked at the pre-restart horizon resumes exactly there.
	res, err := w2.TailFrom(context.Background(), 3, 0, 0)
	if err != nil {
		t.Fatalf("TailFrom(3): %v", err)
	}
	if len(res.Frames) != 1 || res.Frames[0].LSN != 4 {
		t.Fatalf("tail from old horizon = %+v", res.Frames)
	}
	// A cursor below the checkpoint floor must re-seed, not silently match.
	if _, err := w2.TailFrom(context.Background(), 1, 0, 0); !errors.Is(err, ErrWALTruncated) {
		t.Fatalf("tail below floor = %v, want ErrWALTruncated", err)
	}
}

// TestWALSidecarTornIgnored: an unreadable floor sidecar falls back to the
// frames. Checkpoint writes the sidecar before truncating, so the two are
// never unreadable together.
func TestWALSidecarTornIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	w, _ := openTestWAL(t, path, WALOptions{})
	appendWait(t, w, []byte("one"))
	appendWait(t, w, []byte("two"))
	w.Close()
	// Right length, right magic, bad CRC — a torn overwrite.
	if err := os.WriteFile(walSidecarPath(path), []byte(walSidecarMagic+"garbagebad12"), 0o644); err != nil {
		t.Fatal(err)
	}
	w2, recs := openTestWAL(t, path, WALOptions{})
	defer w2.Close()
	if len(recs) != 2 || w2.Stats().LastLSN != 2 {
		t.Fatalf("torn sidecar corrupted recovery: recs=%d stats=%+v", len(recs), w2.Stats())
	}
}

func TestWALBadHeaderResets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	if err := os.WriteFile(path, []byte("BOGUS"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, recs := openTestWAL(t, path, WALOptions{})
	defer w.Close()
	if len(recs) != 0 {
		t.Fatalf("recs = %v", recs)
	}
	appendWait(t, w, []byte("fresh"))
	w.Close()
	_, recs2 := openTestWAL(t, path, WALOptions{})
	if len(recs2) != 1 || string(recs2[0].Payload) != "fresh" {
		t.Fatalf("after reset: %v", recs2)
	}
}
