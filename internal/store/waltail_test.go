package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// collectTail drains the tail stream from a cursor until the durable
// horizon, returning every served frame. It asserts each page is in
// strictly increasing LSN order and contiguous with the previous page.
func collectTail(t *testing.T, w *WAL, from uint64, pageMax int) []WALRecord {
	t.Helper()
	var out []WALRecord
	cursor := from
	for {
		res, err := w.TailFrom(context.Background(), cursor, pageMax, 0)
		if err != nil {
			t.Fatalf("TailFrom(%d): %v", cursor, err)
		}
		if len(res.Frames) == 0 {
			return out
		}
		prev := cursor
		for _, fr := range res.Frames {
			if fr.LSN <= prev {
				t.Fatalf("tail from %d: LSN %d not above previous %d (torn or duplicated frame)", from, fr.LSN, prev)
			}
			if fr.LSN > res.DurableLSN {
				t.Fatalf("tail served LSN %d past its own durable horizon %d", fr.LSN, res.DurableLSN)
			}
			prev = fr.LSN
		}
		out = append(out, res.Frames...)
		cursor = res.Frames[len(res.Frames)-1].LSN
	}
}

// TestWALTailCursors drives the tail protocol over the cursor shapes the
// replication stream meets in practice: zero, mid-stream, exactly at the
// horizon, past the end, and below a checkpoint floor.
func TestWALTailCursors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	w, _ := openTestWAL(t, path, WALOptions{})
	defer w.Close()

	const n = 20
	for i := 0; i < n; i++ {
		appendWait(t, w, []byte(fmt.Sprintf("rec-%d", i)))
	}

	// Cursor 0 replays everything, once, in order.
	all := collectTail(t, w, 0, 7)
	if len(all) != n {
		t.Fatalf("tail from 0 served %d frames, want %d", len(all), n)
	}
	for i, fr := range all {
		if fr.LSN != uint64(i+1) || string(fr.Payload) != fmt.Sprintf("rec-%d", i) {
			t.Fatalf("frame %d = lsn %d payload %q", i, fr.LSN, fr.Payload)
		}
	}

	// Every mid-stream cursor gets exactly the suffix above it.
	for from := uint64(1); from <= n; from++ {
		got := collectTail(t, w, from, 3)
		if len(got) != int(n-from) {
			t.Fatalf("tail from %d served %d frames, want %d", from, len(got), n-from)
		}
		if len(got) > 0 && got[0].LSN != from+1 {
			t.Fatalf("tail from %d starts at %d", from, got[0].LSN)
		}
	}

	// At-horizon and past-end cursors are empty pages, not errors.
	for _, from := range []uint64{n, n + 1, n + 50} {
		res, err := w.TailFrom(context.Background(), from, 0, 0)
		if err != nil {
			t.Fatalf("TailFrom(%d): %v", from, err)
		}
		if len(res.Frames) != 0 {
			t.Fatalf("tail from %d past end served %d frames", from, len(res.Frames))
		}
		if res.DurableLSN != n {
			t.Fatalf("durable = %d, want %d", res.DurableLSN, n)
		}
	}

	// After a checkpoint the floor rises; stale cursors are told so.
	if err := w.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for _, from := range []uint64{0, 1, n - 1} {
		_, err := w.TailFrom(context.Background(), from, 0, 0)
		if !errors.Is(err, ErrWALTruncated) {
			t.Fatalf("tail from %d after checkpoint: err = %v, want ErrWALTruncated", from, err)
		}
	}
	// The floor itself is a valid (empty) cursor again.
	res, err := w.TailFrom(context.Background(), n, 0, 0)
	if err != nil || len(res.Frames) != 0 || res.BaseLSN != n {
		t.Fatalf("tail at floor: res=%+v err=%v", res, err)
	}

	// Post-checkpoint appends resume above the floor with no LSN reuse.
	appendWait(t, w, []byte("after"))
	got := collectTail(t, w, n, 0)
	if len(got) != 1 || got[0].LSN != n+1 || string(got[0].Payload) != "after" {
		t.Fatalf("post-checkpoint tail = %+v", got)
	}
}

// TestWALTailReadsFromCursor pins that a tail reads only the frames it
// ships: with the bytes of frames 1..k corrupted on disk behind the log's
// back, a tail from cursor k still serves k+1..n intact, because the read
// starts at frame k+1's offset instead of re-verifying the log from its
// header. A cursor below a corrupt frame still ends in ErrWALTruncated —
// the frame it must ship fails its CRC — so that follower re-seeds.
func TestWALTailReadsFromCursor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	w, _ := openTestWAL(t, path, WALOptions{})
	defer w.Close()
	const n, k = 20, 8
	for i := 1; i <= n; i++ {
		appendWait(t, w, []byte(fmt.Sprintf("rec-%02d", i)))
	}
	frame := int64(walFrameOverhead + len("rec-00"))
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < k; i++ {
		if _, err := f.WriteAt([]byte("XXXX"), int64(len(walMagic))+i*frame+12); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	got := collectTail(t, w, k, 5)
	if len(got) != n-k {
		t.Fatalf("tail from %d served %d frames, want %d", k, len(got), n-k)
	}
	for i, fr := range got {
		if want := fmt.Sprintf("rec-%02d", k+1+i); fr.LSN != uint64(k+1+i) || string(fr.Payload) != want {
			t.Fatalf("frame %d = lsn %d %q, want lsn %d %q", i, fr.LSN, fr.Payload, k+1+i, want)
		}
	}
	for _, from := range []uint64{0, k - 1} {
		if _, err := w.TailFrom(context.Background(), from, 0, 0); !errors.Is(err, ErrWALTruncated) {
			t.Fatalf("tail from %d over a corrupt frame: err = %v, want ErrWALTruncated", from, err)
		}
	}
}

// TestWALTailCheckpointRace pins the one race the offset index opens: a
// tail cuts its byte range under the lock and reads it after releasing
// it, so a Checkpoint (and new appends reusing the same offsets) can land
// in between. Such a read must come back empty — never a new-incarnation
// frame under the old cursor — and the tail then reports ErrWALTruncated.
func TestWALTailCheckpointRace(t *testing.T) {
	for _, tc := range []struct {
		name  string
		after []string // appended after the checkpoint
	}{
		{"truncated", nil},
		{"same-offsets", []string{"new-11", "new-12", "new-13", "new-14"}},
		{"misaligned", []string{"n", "new-frame-misaligned-with-the-old"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "db.wal")
			w, _ := openTestWAL(t, path, WALOptions{})
			defer w.Close()
			for i := 1; i <= 10; i++ {
				appendWait(t, w, []byte(fmt.Sprintf("old-%02d", i)))
			}
			const from = 3
			w.mu.Lock()
			start, end, hi := w.tailRangeLocked(from, DefaultTailBatch)
			w.mu.Unlock()
			if err := w.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			for _, p := range tc.after {
				appendWait(t, w, []byte(p))
			}
			frames, err := readTailRange(path, start, end, from, hi)
			if err != nil || len(frames) != 0 {
				t.Fatalf("stale range read = %v, %v; want no frames", frames, err)
			}
			if _, err := w.TailFrom(context.Background(), from, 0, 0); !errors.Is(err, ErrWALTruncated) {
				t.Fatalf("tail from %d after checkpoint: err = %v, want ErrWALTruncated", from, err)
			}
		})
	}

	// The same race, live: one writer appends frames whose payload names
	// their LSN and checkpoints now and then while tailers follow; every
	// page is either ErrWALTruncated or the exact frames above its cursor.
	path := filepath.Join(t.TempDir(), "live.wal")
	w, _ := openTestWAL(t, path, WALOptions{})
	defer w.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 600; i++ {
			if rng.Intn(25) == 0 {
				if err := w.Checkpoint(); err != nil {
					t.Errorf("Checkpoint: %v", err)
					return
				}
				continue
			}
			lsn := w.Stats().LastLSN + 1
			tk, err := w.Append([]byte(fmt.Sprintf("lsn-%d-%s", lsn, strings.Repeat("z", rng.Intn(24)))))
			if err != nil {
				t.Errorf("Append: %v", err)
				return
			}
			if err := tk.Wait(context.Background()); err != nil {
				t.Errorf("Wait: %v", err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cursor uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := w.TailFrom(context.Background(), cursor, 1+int(cursor%4), time.Millisecond)
				if errors.Is(err, ErrWALTruncated) {
					cursor = res.BaseLSN
					continue
				}
				if err != nil {
					t.Errorf("TailFrom(%d): %v", cursor, err)
					return
				}
				for _, fr := range res.Frames {
					if fr.LSN != cursor+1 || !strings.HasPrefix(string(fr.Payload), fmt.Sprintf("lsn-%d-", fr.LSN)) {
						t.Errorf("cursor %d served lsn %d payload %q", cursor, fr.LSN, fr.Payload)
						return
					}
					cursor = fr.LSN
				}
			}
		}()
	}
	wg.Wait()
}

// TestWALTailLongPoll checks that an at-horizon tail blocks until the next
// durable append and is woken by it, and that ctx cancellation unblocks.
func TestWALTailLongPoll(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	w, _ := openTestWAL(t, path, WALOptions{})
	defer w.Close()
	appendWait(t, w, []byte("seed"))

	type tailRes struct {
		res WALTailResult
		err error
	}
	ch := make(chan tailRes, 1)
	go func() {
		res, err := w.TailFrom(context.Background(), 1, 0, 5*time.Second)
		ch <- tailRes{res, err}
	}()
	// The poller should be parked; the next durable append must release it.
	time.Sleep(10 * time.Millisecond)
	appendWait(t, w, []byte("wakeup"))
	select {
	case r := <-ch:
		if r.err != nil || len(r.res.Frames) != 1 || string(r.res.Frames[0].Payload) != "wakeup" {
			t.Fatalf("long-poll result %+v err %v", r.res, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll tail never woke after a durable append")
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		_, err := w.TailFrom(ctx, 2, 0, time.Minute)
		ch <- tailRes{err: err}
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case r := <-ch:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("cancelled tail err = %v", r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled tail never returned")
	}
}

// TestWALTailOnlyDurable asserts the tail never ships a frame ahead of the
// fsync horizon: with group commit pending, an un-synced append is
// invisible until its ticket resolves.
func TestWALTailOnlyDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	// The held fsync keeps the append un-synced while we look.
	w, release := openGatedWAL(t, path)
	defer w.Close()
	defer close(release)
	tk, err := w.Append([]byte("pending"))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	res, err := w.TailFrom(context.Background(), 0, 0, 0)
	if err != nil {
		t.Fatalf("TailFrom: %v", err)
	}
	if len(res.Frames) != 0 || res.DurableLSN != 0 {
		t.Fatalf("tail served un-synced frame: %+v", res)
	}
	release <- struct{}{}
	if err := tk.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	res, err = w.TailFrom(context.Background(), 0, 0, 0)
	if err != nil || len(res.Frames) != 1 {
		t.Fatalf("post-fsync tail = %+v err %v", res, err)
	}
}

// refTailFrames is the whole-file scan TailFrom used before it kept a
// frame offset index, kept here as the reference the property test
// compares every probe with: it re-verifies every frame from the header
// forward and returns up to max frames with LSN in (from, durable].
func refTailFrames(t *testing.T, path string, from, durable uint64, max int) []WALRecord {
	t.Helper()
	if max <= 0 {
		max = DefaultTailBatch
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ref tail read: %v", err)
	}
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return nil
	}
	var out []WALRecord
	off := int64(len(walMagic))
	var prev uint64
	for {
		rec, next, ok := decodeWALFrame(data, off, prev)
		if !ok || rec.LSN > durable {
			break
		}
		prev = rec.LSN
		off = next
		if rec.LSN > from {
			out = append(out, rec)
			if len(out) >= max {
				break
			}
		}
	}
	return out
}

// syncGateFile is a WALFile whose every Sync waits for a token on release
// (or for release to close), so a test can hold an fsync in flight while
// it appends and tails.
type syncGateFile struct {
	*os.File
	release chan struct{}
}

func (f *syncGateFile) Sync() error {
	<-f.release
	return f.File.Sync()
}

// openGatedWAL opens a log whose fsyncs wait on the returned channel. The
// caller sends a token per fsync and closes the channel before Close.
func openGatedWAL(t *testing.T, path string) (*WAL, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	w, _ := openTestWAL(t, path, WALOptions{OpenFile: func(p string) (WALFile, error) {
		f, err := os.OpenFile(p, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		return &syncGateFile{File: f, release: release}, nil
	}})
	return w, release
}

// waitBatchTaken waits until the flusher has taken every pending commit,
// i.e. it is parked in the fsync that covers them.
func waitBatchTaken(t *testing.T, w *WAL) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		w.mu.Lock()
		taken := len(w.pending) == 0
		w.mu.Unlock()
		if taken {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("flusher never took the pending batch")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWALTailAppendDuringFsync pins the horizon with a frame appended
// while the fsync before it is in flight: that frame is on the file and
// inside the log's size, but no fsync covers it yet, so the tail must stop
// at the frame the fsync did cover.
func TestWALTailAppendDuringFsync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	w, release := openGatedWAL(t, path)
	defer w.Close()
	defer close(release) // runs first: a failed test leaves no Sync parked for Close
	tk1, err := w.Append([]byte("covered"))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	// The flusher takes the first batch and parks in its Sync; wait until
	// it has snapshotted the batch, then append behind its back.
	waitBatchTaken(t, w)
	tk2, err := w.Append([]byte("uncovered"))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	release <- struct{}{}
	if err := tk1.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	// The second fsync is parked on the gate: the horizon is frame 1.
	res, err := w.TailFrom(context.Background(), 0, 0, 0)
	if err != nil || res.DurableLSN != 1 || len(res.Frames) != 1 || string(res.Frames[0].Payload) != "covered" {
		t.Fatalf("tail with frame 2 un-synced = %+v, %v; want frame 1 alone at horizon 1", res, err)
	}
	release <- struct{}{}
	if err := tk2.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	res, err = w.TailFrom(context.Background(), 1, 0, 0)
	if err != nil || len(res.Frames) != 1 || string(res.Frames[0].Payload) != "uncovered" {
		t.Fatalf("tail after the second fsync = %+v, %v", res, err)
	}
}

// TestWALTailPropertyRandom is the protocol property test: under random
// interleavings of appends (one at a time and in group-committed bursts),
// checkpoints, reopens over a torn tail and arbitrary cursors, every tail
// page equals the whole-file reference scan, a stream is never torn or
// duplicated, and replaying any served stream twice yields the same record set
// (idempotence holds because each LSN appears at most once per stream and
// streams are contiguous suffixes). Reopens rebuild the frame offset index
// from replay, so they check it against the file as well.
func TestWALTailPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("t%d.wal", trial))
		w, _ := openTestWAL(t, path, WALOptions{})
		payloads := make(map[uint64]string) // live (un-checkpointed) records
		var lsn, base uint64
		steps := 30 + rng.Intn(40)
		for i := 0; i < steps; i++ {
			switch r := rng.Intn(20); {
			case r < 2: // occasional checkpoint
				if err := w.Checkpoint(); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
				base = lsn
				payloads = make(map[uint64]string)
			case r < 4: // reopen, over a torn tail or a lost last frame
				if err := w.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				if r == 2 {
					tearWALTail(t, path)
				} else if _, ok := payloads[lsn]; ok {
					cutLastWALFrame(t, path, len(payloads[lsn]))
					delete(payloads, lsn)
					lsn--
				}
				var recs []WALRecord
				w, recs = openTestWAL(t, path, WALOptions{})
				if len(recs) != len(payloads) {
					t.Fatalf("reopen replayed %d records, want %d", len(recs), len(payloads))
				}
			case r < 7: // a group-committed burst
				var tks []*WALTicket
				for n := 1 + rng.Intn(6); n > 0; n-- {
					lsn++
					p := fmt.Sprintf("t%d-r%d-%s", trial, lsn, strings.Repeat("x", rng.Intn(40)))
					tk, err := w.Append([]byte(p))
					if err != nil {
						t.Fatalf("Append: %v", err)
					}
					payloads[lsn] = p
					tks = append(tks, tk)
				}
				for _, tk := range tks {
					if err := tk.Wait(context.Background()); err != nil {
						t.Fatalf("Wait: %v", err)
					}
				}
			default:
				lsn++
				p := fmt.Sprintf("t%d-r%d-%s", trial, lsn, strings.Repeat("y", rng.Intn(40)))
				appendWait(t, w, []byte(p))
				payloads[lsn] = p
			}
			if st := w.Stats(); st.BaseLSN != base || st.DurableLSN != lsn {
				t.Fatalf("step %d: base/durable = %d/%d, want %d/%d", i, st.BaseLSN, st.DurableLSN, base, lsn)
			}

			// Probe a random cursor: 0, below base, mid, at-end, past-end.
			from := uint64(rng.Intn(int(lsn) + 3))
			max := rng.Intn(6)
			res, err := w.TailFrom(context.Background(), from, max, 0)
			if from < base {
				if !errors.Is(err, ErrWALTruncated) {
					t.Fatalf("cursor %d below base %d: err = %v", from, base, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("TailFrom(%d): %v", from, err)
			}
			if want := refTailFrames(t, path, from, res.DurableLSN, max); !reflect.DeepEqual(res.Frames, want) {
				t.Fatalf("TailFrom(%d, %d) = %v, reference scan %v", from, max, res.Frames, want)
			}
			prev := from
			for _, fr := range res.Frames {
				if fr.LSN != prev+1 {
					t.Fatalf("torn/duplicate: lsn %d after %d", fr.LSN, prev)
				}
				if want, ok := payloads[fr.LSN]; !ok || want != string(fr.Payload) {
					t.Fatalf("lsn %d payload %q, want %q", fr.LSN, fr.Payload, want)
				}
				prev = fr.LSN
			}
		}

		// Full drain from base: the stream must reconstruct the live set
		// exactly, and draining twice gives identical streams.
		drain1 := collectTail(t, w, base, 1+rng.Intn(7))
		drain2 := collectTail(t, w, base, 1+rng.Intn(7))
		if len(drain1) != len(payloads) || len(drain2) != len(payloads) {
			t.Fatalf("drain sizes %d/%d, want %d", len(drain1), len(drain2), len(payloads))
		}
		for i := range drain1 {
			if drain1[i].LSN != drain2[i].LSN || string(drain1[i].Payload) != string(drain2[i].Payload) {
				t.Fatalf("drains disagree at %d", i)
			}
			if payloads[drain1[i].LSN] != string(drain1[i].Payload) {
				t.Fatalf("drain lsn %d payload mismatch", drain1[i].LSN)
			}
		}
		w.Close()
	}
}

// cutLastWALFrame cuts the last frame (of payload size n) of a closed log
// in half: a final append that never reached the disk whole. Its LSN is
// assigned again after the reopen.
func cutLastWALFrame(t *testing.T, path string, n int) {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-int64(walFrameOverhead+n)/2-1); err != nil {
		t.Fatal(err)
	}
}

// TestWALTailConcurrentAppends runs tailers against live concurrent
// writers (the race the durable-horizon bookkeeping exists for) and
// asserts every acked append is eventually served exactly once, in order.
func TestWALTailConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	w, _ := openTestWAL(t, path, WALOptions{})
	defer w.Close()

	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tk, err := w.Append([]byte(fmt.Sprintf("w%d-%d", g, i)))
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				if err := tk.Wait(context.Background()); err != nil {
					t.Errorf("Wait: %v", err)
					return
				}
			}
		}(g)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	seen := make(map[uint64]bool)
	var cursor uint64
	deadline := time.After(30 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatalf("tail stalled at cursor %d", cursor)
		default:
		}
		res, err := w.TailFrom(context.Background(), cursor, 16, 50*time.Millisecond)
		if err != nil {
			t.Fatalf("TailFrom: %v", err)
		}
		for _, fr := range res.Frames {
			if fr.LSN <= cursor {
				t.Fatalf("out-of-order frame %d at cursor %d", fr.LSN, cursor)
			}
			if fr.LSN > res.DurableLSN {
				t.Fatalf("frame %d served past the durable horizon %d", fr.LSN, res.DurableLSN)
			}
			if seen[fr.LSN] {
				t.Fatalf("duplicate frame %d", fr.LSN)
			}
			seen[fr.LSN] = true
			cursor = fr.LSN
		}
		if cursor == writers*perWriter {
			break
		}
		select {
		case <-done:
			// Writers finished; loop once more to drain the rest.
		default:
		}
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("served %d unique frames, want %d", len(seen), writers*perWriter)
	}
}

// FuzzWALTailCursor fuzzes the cursor/page-size space against a fixed log
// that was checkpointed once and appended to again — so the second
// incarnation's frames sit at the first one's offsets — and asserts a
// cursor below the floor is ErrWALTruncated and any other page is an exact
// contiguous slice of the durable record sequence.
func FuzzWALTailCursor(f *testing.F) {
	path := filepath.Join(f.TempDir(), "fuzz.wal")
	w, _, err := OpenWAL(path, WALOptions{})
	if err != nil {
		f.Fatalf("OpenWAL: %v", err)
	}
	defer w.Close()
	const floor, n = 12, 24
	for i := 1; i <= n; i++ {
		if i == floor+1 {
			if err := w.Checkpoint(); err != nil {
				f.Fatalf("Checkpoint: %v", err)
			}
		}
		tk, err := w.Append([]byte(fmt.Sprintf("f-%d", i)))
		if err != nil {
			f.Fatalf("Append: %v", err)
		}
		if err := tk.Wait(context.Background()); err != nil {
			f.Fatalf("Wait: %v", err)
		}
	}
	f.Add(uint64(0), 5)
	f.Add(uint64(3), 1)
	f.Add(uint64(floor), 100)
	f.Add(uint64(floor+3), 2)
	f.Add(uint64(n), 100)
	f.Add(uint64(n+7), 0)
	f.Fuzz(func(t *testing.T, from uint64, max int) {
		res, err := w.TailFrom(context.Background(), from, max, 0)
		if from < floor {
			if !errors.Is(err, ErrWALTruncated) {
				t.Fatalf("TailFrom(%d,%d) below floor %d: err = %v, want ErrWALTruncated", from, max, floor, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("TailFrom(%d,%d): %v", from, max, err)
		}
		want := 0
		if from < n {
			want = int(n - from)
		}
		limit := max
		if limit <= 0 {
			limit = DefaultTailBatch
		}
		if want > limit {
			want = limit
		}
		if len(res.Frames) != want {
			t.Fatalf("from=%d max=%d served %d frames, want %d", from, max, len(res.Frames), want)
		}
		for i, fr := range res.Frames {
			wantLSN := from + uint64(i) + 1
			if fr.LSN != wantLSN || string(fr.Payload) != fmt.Sprintf("f-%d", wantLSN) {
				t.Fatalf("frame %d = lsn %d %q", i, fr.LSN, fr.Payload)
			}
		}
	})
}

// BenchmarkWALTail measures a follower's steady state — a tail of the last
// durable frame — against logs of growing length: the read is cut from the
// frame offset index, so the cost should not grow with the log.
func BenchmarkWALTail(b *testing.B) {
	payload := make([]byte, 512)
	for _, frames := range []int{1000, 20000} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			w, _, err := OpenWAL(filepath.Join(b.TempDir(), "bench.wal"), WALOptions{})
			if err != nil {
				b.Fatalf("OpenWAL: %v", err)
			}
			defer w.Close()
			var last *WALTicket
			for i := 0; i < frames; i++ {
				if last, err = w.Append(payload); err != nil {
					b.Fatalf("Append: %v", err)
				}
			}
			if err := last.Wait(context.Background()); err != nil {
				b.Fatalf("Wait: %v", err)
			}
			from := uint64(frames - 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := w.TailFrom(context.Background(), from, 0, 0)
				if err != nil || len(res.Frames) != 1 {
					b.Fatalf("TailFrom(%d) = %d frames, %v", from, len(res.Frames), err)
				}
			}
		})
	}
}
