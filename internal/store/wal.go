// Package store holds the write-ahead log: CRC-framed redo records with
// group commit, a monotonic LSN space that survives checkpoint + restart,
// and the durable tail replication reads. Object state lives in
// internal/store/segment; this log is the acknowledgement authority over
// it. walfault.go is the log's fault-injecting file for crash tests.
package store

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrClosed reports an operation on a closed log or database.
var ErrClosed = errors.New("store: store is closed")

// Write-ahead log: after a crash the segment set holds everything sealed
// before the last checkpoint; the WAL carries every acknowledged logical
// operation since that checkpoint so recovery can roll the database
// forward again. This layer owns the file mechanics (framing, checksums,
// fsync batching, torn-tail truncation); record payloads are opaque bytes
// whose meaning belongs to the caller (internal/core encodes catalog
// mutations).
//
// File layout:
//
//	header: magic "ESREDO1\x00"
//	frame:  payloadLen u32 | lsn u64 | payload | crc u32 (over len+lsn+payload)
//
// A sidecar at <path>.lsn persists the checkpoint LSN floor so the LSN
// space stays monotonic across checkpoint + restart (a replication
// requirement: follower cursors are LSNs into this log and must never see
// the sequence restart — see Checkpoint and OpenWAL).
//
// A frame is the unit of atomicity: replay stops at the first frame whose
// length, LSN or checksum does not verify and truncates the file there, so
// a torn append (crash mid-write) can lose the unacknowledged tail but can
// never half-apply a record.
//
// Group commit: Append writes the frame immediately but defers the fsync
// to a flusher goroutine; every writer whose frame was on disk before an
// fsync completes is released by that one fsync. Under concurrency the
// batch forms naturally while the previous fsync is in flight; a non-zero
// window adds a deliberate delay to grow batches further, and MaxBatch 1
// degenerates to the classic one-fsync-per-commit discipline (the bench
// baseline).

const walMagic = "ESREDO1\x00"

// walSidecarMagic heads the checkpoint sidecar (see walSidecarPath).
const walSidecarMagic = "ESCKPT1\x00"

// walFrameOverhead is the per-frame byte cost beyond the payload.
const walFrameOverhead = 4 + 8 + 4

// DefaultWALMaxBatch is the group-commit batch cap when WALOptions.MaxBatch
// is zero.
const DefaultWALMaxBatch = 64

// ErrWALTorn reports that OpenWAL discarded a torn tail. It is informative
// only; OpenWAL handles truncation itself and does not return it.
var ErrWALTorn = errors.New("store: torn WAL tail")

// ErrWALTruncated reports that a tail cursor points below the log's base
// LSN: the frames it asks for were checkpointed away. A follower receiving
// it cannot catch up from the log alone and must re-seed from a snapshot.
var ErrWALTruncated = errors.New("store: wal tail truncated by checkpoint")

var (
	mWALFsyncs    = obs.Default().Counter("esidb_wal_fsyncs_total")
	mWALRecords   = obs.Default().Counter("esidb_wal_records_total")
	mWALReplayed  = obs.Default().Counter("esidb_wal_replayed_records_total")
	mWALTornBytes = obs.Default().Counter("esidb_wal_torn_tail_bytes_total")
	mWALGroupSize = obs.Default().Histogram("esidb_wal_group_size", []float64{1, 2, 4, 8, 16, 32, 64, 128})
)

// WALFile is the file seam the log writes through. *os.File satisfies it;
// tests substitute a FaultFile to kill the write path at a chosen byte.
type WALFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// WALOptions tunes the log.
type WALOptions struct {
	// Window is the group-commit window: after the first commit of a batch
	// arrives, the flusher waits up to Window for more writers before
	// fsyncing. 0 means fsync as soon as the flusher is free (batches still
	// form while an fsync is in flight).
	Window time.Duration
	// MaxBatch flushes early once this many commits are pending; 0 means
	// DefaultWALMaxBatch. 1 disables group commit entirely: every Append
	// performs its own synchronous fsync.
	MaxBatch int
	// OpenFile opens the append handle — the fault-injection seam. nil
	// means the real file.
	OpenFile func(path string) (WALFile, error)
}

// WALRecord is one replayed log record.
type WALRecord struct {
	LSN     uint64 `json:"lsn"`
	Payload []byte `json:"payload"` // base64 on the wire (encoding/json default)
}

// WALStats is a point-in-time log snapshot.
type WALStats struct {
	// LastLSN is the most recently assigned log sequence number.
	LastLSN uint64 `json:"last_lsn"`
	// DurableLSN is the highest LSN covered by a completed fsync — the
	// replication horizon: tails never serve past it.
	DurableLSN uint64 `json:"durable_lsn"`
	// BaseLSN is the checkpoint floor: on-disk frames cover (BaseLSN,
	// DurableLSN]. A tail cursor below it gets ErrWALTruncated.
	BaseLSN uint64 `json:"base_lsn"`
	// Records is the number of records appended since the last checkpoint
	// (including any replayed at open).
	Records int64 `json:"records"`
	// SizeBytes is the current log file size including the header.
	SizeBytes int64 `json:"size_bytes"`
	// Fsyncs counts committed fsync batches over this WAL's lifetime.
	Fsyncs int64 `json:"fsyncs"`
	// Checkpoints counts log truncations.
	Checkpoints int64 `json:"checkpoints"`
	// Replayed is the number of records recovered at open.
	Replayed int64 `json:"replayed"`
	// TornBytes is the size of the torn tail discarded at open.
	TornBytes int64 `json:"torn_bytes"`
}

// WALTicket is one writer's pending commit. A nil ticket Waits as already
// durable (used when the WAL is disabled).
type WALTicket struct {
	done  chan struct{}
	err   error // written by the flusher before done closes
	batch int   // written by the flusher before done closes
}

// resolvedTicket is returned by synchronous commits (MaxBatch 1).
func resolvedTicket(err error) *WALTicket {
	t := &WALTicket{done: make(chan struct{}), err: err, batch: 1}
	close(t.done)
	return t
}

// Wait blocks until the record's batch is durable (or the WAL failed) and
// returns the commit error. A ctx cancellation abandons the wait — the
// record may still become durable afterwards, like a timed-out commit.
//
// When ctx carries an obs span (a traced request), the wait is recorded as
// a "wal.fsync-wait" child span counting the group-commit batch the fsync
// rode on, so a trace attributes commit latency to the durability wait
// rather than the write itself.
func (t *WALTicket) Wait(ctx context.Context) error {
	if t == nil {
		return nil
	}
	sp := obs.SpanFromContext(ctx).StartChild("wal.fsync-wait")
	select {
	case <-t.done:
		sp.Count(obs.TWALGroupSize, int64(t.batch))
		if t.err != nil {
			sp.SetAttr("error", t.err.Error())
		}
		sp.End()
		return t.err
	case <-ctx.Done():
		sp.SetAttr("error", "abandoned: "+ctx.Err().Error())
		sp.End()
		return ctx.Err()
	}
}

// BatchSize returns the group-commit batch the ticket's fsync covered
// (valid once Wait has returned; 0 while pending).
func (t *WALTicket) BatchSize() int {
	if t == nil {
		return 0
	}
	select {
	case <-t.done:
		return t.batch
	default:
		return 0
	}
}

// WAL is the write-ahead log for one store file.
type WAL struct {
	path     string
	window   time.Duration
	maxBatch int

	mu      sync.Mutex
	f       WALFile
	err     error // sticky: first write/sync failure poisons the log
	pending []*WALTicket
	lsn     uint64
	base    uint64 // checkpoint floor: on-disk frames cover (base, lsn]
	durable uint64 // highest LSN a completed fsync covers
	records int64
	size    int64
	fsyncs  int64
	ckpts   int64
	replays int64
	torn    int64
	closed  bool
	// tailWake is closed and replaced whenever the durable horizon moves
	// (or the log closes), waking long-polling TailFrom callers.
	tailWake chan struct{}

	kick chan struct{}
	quit chan struct{}
	done chan struct{}
}

// OpenWAL opens (or creates) the log at path, replays every intact frame
// and truncates any torn tail. The returned records are in append order;
// the caller applies them idempotently and normally checkpoints afterwards.
func OpenWAL(path string, opts WALOptions) (*WAL, []WALRecord, error) {
	if opts.MaxBatch == 0 {
		opts.MaxBatch = DefaultWALMaxBatch
	}
	if opts.MaxBatch < 1 {
		return nil, nil, fmt.Errorf("store: wal max batch %d", opts.MaxBatch)
	}
	if opts.OpenFile == nil {
		opts.OpenFile = func(p string) (WALFile, error) {
			return os.OpenFile(p, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
		}
	}
	recs, validLen, lastLSN, tornBytes, err := readWALFrames(path)
	if err != nil {
		return nil, nil, err
	}
	// LSN continuity across checkpoint + restart: Checkpoint empties the
	// file, so the frames alone would restart the LSN space at 1 on the next
	// open — and a still-running follower's old, larger cursor would then
	// silently skip (or falsely ack) the new incarnation's frames. The
	// sidecar carries the floor the last checkpoint established; seeding
	// from the max of both keeps LSNs monotonic for the life of the path.
	if side := readWALSidecar(walSidecarPath(path)); side > lastLSN {
		lastLSN = side
	}
	if tornBytes > 0 {
		// The tail never committed (or a header never finished): cut it off
		// before the append handle opens so new frames follow intact ones.
		if err := os.Truncate(path, validLen); err != nil {
			return nil, nil, fmt.Errorf("store: wal truncate torn tail: %w", err)
		}
		mWALTornBytes.Add(tornBytes)
	}
	f, err := opts.OpenFile(path)
	if err != nil {
		return nil, nil, err
	}
	w := &WAL{
		path:     path,
		window:   opts.Window,
		maxBatch: opts.MaxBatch,
		f:        f,
		lsn:      lastLSN,
		durable:  lastLSN, // replayed frames are on disk by definition
		size:     validLen,
		records:  int64(len(recs)),
		replays:  int64(len(recs)),
		torn:     tornBytes,
		kick:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		tailWake: make(chan struct{}),
	}
	if len(recs) > 0 {
		w.base = recs[0].LSN - 1
	} else {
		w.base = lastLSN
	}
	if validLen == 0 {
		// Fresh (or reset) log: write the header through the seam so a
		// fault can tear it — replay treats a bad header as an empty log.
		if _, err := f.Write([]byte(walMagic)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: wal header: %w", err)
		}
		w.size = int64(len(walMagic))
	}
	mWALReplayed.Add(int64(len(recs)))
	go w.flusher()
	return w, recs, nil
}

// walSidecarPath is where a log at path persists its checkpoint LSN floor:
// a fixed-size record of magic, floor LSN and a CRC over both.
func walSidecarPath(path string) string { return path + ".lsn" }

// readWALSidecar returns the LSN floor the last checkpoint persisted, or 0
// when the sidecar is absent, foreign or torn. A torn sidecar is safe to
// ignore: Checkpoint writes it *before* truncating the frames, so whenever
// the sidecar is unreadable the frames still carry the larger LSN.
func readWALSidecar(path string) uint64 {
	data, err := os.ReadFile(path)
	if err != nil || len(data) != len(walSidecarMagic)+12 {
		return 0
	}
	if string(data[:len(walSidecarMagic)]) != walSidecarMagic {
		return 0
	}
	want := binary.LittleEndian.Uint32(data[len(walSidecarMagic)+8:])
	if crc32.ChecksumIEEE(data[:len(walSidecarMagic)+8]) != want {
		return 0
	}
	return binary.LittleEndian.Uint64(data[len(walSidecarMagic):])
}

// writeWALSidecar durably records lsn as the checkpoint floor (write plus
// fsync; the CRC turns a torn overwrite into an ignored sidecar rather
// than a wrong floor).
func writeWALSidecar(path string, lsn uint64) error {
	buf := make([]byte, len(walSidecarMagic)+12)
	copy(buf, walSidecarMagic)
	binary.LittleEndian.PutUint64(buf[len(walSidecarMagic):], lsn)
	binary.LittleEndian.PutUint32(buf[len(walSidecarMagic)+8:], crc32.ChecksumIEEE(buf[:len(walSidecarMagic)+8]))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readWALFrames parses the log file, returning the intact records, the
// byte offset up to which the file verifies, the last intact LSN and how
// many trailing bytes are torn. A missing file is an empty log.
func readWALFrames(path string) (recs []WALRecord, validLen int64, lastLSN uint64, torn int64, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, 0, err
	}
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		// Torn or foreign header: nothing in this file ever committed.
		return nil, 0, 0, int64(len(data)), nil
	}
	off := int64(len(walMagic))
	for {
		rec, next, ok := decodeWALFrame(data, off, lastLSN)
		if !ok {
			break
		}
		recs = append(recs, rec)
		lastLSN = rec.LSN
		off = next
	}
	return recs, off, lastLSN, int64(len(data)) - off, nil
}

// decodeWALFrame verifies one frame at off. prevLSN enforces the strictly
// increasing sequence — a replayed frame whose LSN goes backwards is
// corruption, not a tail, but truncating there is still the safe answer.
func decodeWALFrame(data []byte, off int64, prevLSN uint64) (WALRecord, int64, bool) {
	if off+walFrameOverhead > int64(len(data)) {
		return WALRecord{}, 0, false
	}
	n := int64(binary.LittleEndian.Uint32(data[off:]))
	end := off + walFrameOverhead + n
	if n < 0 || end > int64(len(data)) {
		return WALRecord{}, 0, false
	}
	lsn := binary.LittleEndian.Uint64(data[off+4:])
	want := binary.LittleEndian.Uint32(data[end-4:])
	if crc32.ChecksumIEEE(data[off:end-4]) != want {
		return WALRecord{}, 0, false
	}
	if lsn <= prevLSN {
		return WALRecord{}, 0, false
	}
	payload := make([]byte, n)
	copy(payload, data[off+12:end-4])
	return WALRecord{LSN: lsn, Payload: payload}, end, true
}

// encodeWALFrame renders one frame.
func encodeWALFrame(lsn uint64, payload []byte) []byte {
	frame := make([]byte, walFrameOverhead+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint64(frame[4:], lsn)
	copy(frame[12:], payload)
	binary.LittleEndian.PutUint32(frame[len(frame)-4:], crc32.ChecksumIEEE(frame[:len(frame)-4]))
	return frame
}

// Append writes one record and returns a ticket that resolves when the
// record is fsync-durable. The write itself is immediate; the fsync is
// batched with concurrent appends (see the group-commit comment above).
// With MaxBatch 1 the fsync happens inline and the ticket is returned
// already resolved.
func (w *WAL) Append(payload []byte) (*WALTicket, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, ErrClosed
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return nil, err
	}
	w.lsn++
	frame := encodeWALFrame(w.lsn, payload)
	if _, err := w.f.Write(frame); err != nil {
		w.err = fmt.Errorf("store: wal append: %w", err)
		err = w.err
		w.mu.Unlock()
		return nil, err
	}
	w.size += int64(len(frame))
	w.records++
	mWALRecords.Inc()
	if w.maxBatch == 1 {
		var err error
		if serr := w.f.Sync(); serr != nil {
			w.err = fmt.Errorf("store: wal fsync: %w", serr)
			err = w.err
		} else {
			w.fsyncs++
			w.advanceDurableLocked(w.lsn)
			mWALFsyncs.Inc()
			mWALGroupSize.Observe(1)
		}
		w.mu.Unlock()
		return resolvedTicket(err), err
	}
	t := &WALTicket{done: make(chan struct{})}
	w.pending = append(w.pending, t)
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
	return t, nil
}

// flusher is the group-commit loop: woken by the first append of a batch,
// it optionally lingers for the window, then fsyncs once for everyone.
func (w *WAL) flusher() {
	defer close(w.done)
	for {
		select {
		case <-w.quit:
			w.flushOnce()
			return
		case <-w.kick:
		}
		if w.window > 0 {
			w.lingerWindow()
		}
		w.flushOnce()
	}
}

// lingerWindow waits out the group-commit window, returning early once
// MaxBatch writers are pending or the log is shutting down.
func (w *WAL) lingerWindow() {
	deadline := time.NewTimer(w.window)
	defer deadline.Stop()
	for {
		w.mu.Lock()
		n := len(w.pending)
		w.mu.Unlock()
		if n >= w.maxBatch {
			return
		}
		select {
		case <-deadline.C:
			return
		case <-w.quit:
			return
		case <-w.kick:
		}
	}
}

// flushOnce fsyncs the file and releases every commit whose frame preceded
// the sync. Safe to call from any goroutine; an empty batch is a no-op.
func (w *WAL) flushOnce() {
	w.mu.Lock()
	batch := w.pending
	w.pending = nil
	err := w.err
	f := w.f
	// Frames written before the fsync starts are the ones it provably
	// covers; anything appended during the sync waits for the next one.
	syncedLSN := w.lsn
	w.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	if err == nil {
		if serr := f.Sync(); serr != nil {
			err = fmt.Errorf("store: wal fsync: %w", serr)
			w.mu.Lock()
			if w.err == nil {
				w.err = err
			}
			w.mu.Unlock()
		} else {
			w.mu.Lock()
			w.fsyncs++
			w.advanceDurableLocked(syncedLSN)
			w.mu.Unlock()
			mWALFsyncs.Inc()
		}
	}
	mWALGroupSize.Observe(float64(len(batch)))
	for _, t := range batch {
		t.err = err
		t.batch = len(batch)
		close(t.done)
	}
}

// Barrier returns a ticket that resolves once every record appended before
// the call is fsync-durable — the read-your-writes seam: a reader that
// must not observe an unacknowledged tail waits on it. When nothing is
// pending (the common idle case, and always with MaxBatch 1) it returns
// nil, which Waits as already durable; the check is one mutex acquisition.
// The barrier joins the in-flight group commit rather than forcing an
// early fsync, so it never shrinks batches.
func (w *WAL) Barrier() *WALTicket {
	w.mu.Lock()
	if w.closed || w.err != nil || len(w.pending) == 0 {
		w.mu.Unlock()
		return nil
	}
	t := &WALTicket{done: make(chan struct{})}
	w.pending = append(w.pending, t)
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
	return t
}

// Checkpoint truncates the log back to its header. The caller must first
// make the logged state durable elsewhere (flush + fsync the store); the
// contract is "everything before Checkpoint is already redone". Pending
// commits are flushed first so no ticket waits on a truncated frame.
func (w *WAL) Checkpoint() error {
	w.flushOnce()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.err != nil {
		return w.err
	}
	// Persist the LSN floor before the frames vanish. Ordering matters: if
	// the floor is durable first, a crash anywhere in the checkpoint leaves
	// either the frames (floor stale, frames carry the LSN) or the sidecar
	// (frames gone, sidecar carries it) — never an empty log that would
	// restart the LSN space and desynchronize follower cursors.
	if err := writeWALSidecar(walSidecarPath(w.path), w.lsn); err != nil {
		w.err = fmt.Errorf("store: wal checkpoint floor: %w", err)
		return w.err
	}
	if err := w.f.Truncate(int64(len(walMagic))); err != nil {
		w.err = fmt.Errorf("store: wal checkpoint: %w", err)
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("store: wal checkpoint sync: %w", err)
		return w.err
	}
	w.size = int64(len(walMagic))
	w.records = 0
	w.ckpts++
	// The log is empty again: the floor rises to the current LSN, and the
	// durable horizon meets it (nothing below the floor is served).
	w.base = w.lsn
	w.durable = w.lsn
	// Wake tailers so cursors below the new floor learn about the
	// truncation now instead of long-polling to their deadline.
	w.wakeTailersLocked()
	return nil
}

// Empty reports whether the log holds no records since its last
// checkpoint.
func (w *WAL) Empty() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records == 0
}

// Stats snapshots the log counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{
		LastLSN:     w.lsn,
		DurableLSN:  w.durable,
		BaseLSN:     w.base,
		Records:     w.records,
		SizeBytes:   w.size,
		Fsyncs:      w.fsyncs,
		Checkpoints: w.ckpts,
		Replayed:    w.replays,
		TornBytes:   w.torn,
	}
}

// Close flushes pending commits and closes the file. Records stay in the
// log for replay at next open unless the caller checkpointed first.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.wakeTailersLocked()
	w.mu.Unlock()
	close(w.quit)
	<-w.done
	return w.f.Close()
}

// Abandon closes the file handle without flushing pending commits —
// whatever the OS already has is whatever a crash would have left. Pending
// tickets resolve with ErrClosed. For crash-recovery tests.
func (w *WAL) Abandon() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	if w.err == nil {
		w.err = ErrClosed
	}
	batch := w.pending
	w.pending = nil
	w.wakeTailersLocked()
	w.mu.Unlock()
	for _, t := range batch {
		t.err = ErrClosed
		t.batch = len(batch)
		close(t.done)
	}
	close(w.quit)
	<-w.done
	return w.f.Close()
}

// DefaultTailBatch caps the frames one TailFrom call returns when the
// caller passes max <= 0.
const DefaultTailBatch = 256

// WALTailResult is one page of the replication stream.
type WALTailResult struct {
	// Frames are intact, fsync-durable records with LSN > the request
	// cursor, in LSN order. Empty when the cursor is at (or past) the
	// durable horizon and the wait expired.
	Frames []WALRecord `json:"frames"`
	// DurableLSN is the server's durable horizon when the page was cut —
	// the number a follower subtracts its applied LSN from to get its lag.
	DurableLSN uint64 `json:"durable_lsn"`
	// BaseLSN is the checkpoint floor at the same instant.
	BaseLSN uint64 `json:"base_lsn"`
}

// wakeTailersLocked releases every long-polling TailFrom caller. Callers
// hold w.mu.
func (w *WAL) wakeTailersLocked() {
	close(w.tailWake)
	w.tailWake = make(chan struct{})
}

// advanceDurableLocked raises the durable horizon after a successful fsync
// and wakes tailers waiting for it. Callers hold w.mu.
func (w *WAL) advanceDurableLocked(lsn uint64) {
	if lsn > w.durable {
		w.durable = lsn
		w.wakeTailersLocked()
	}
}

// TailFrom serves the replication stream: every durable frame with LSN in
// (from, durable], up to max per call (DefaultTailBatch when max <= 0).
// When the cursor is already at the durable horizon it long-polls up to
// wait for new frames (wait <= 0 returns an empty page immediately); an
// expired wait is an empty page, not an error. A cursor below the
// checkpoint floor gets ErrWALTruncated — those frames are gone, the
// follower must re-seed from a snapshot — and a cursor past the horizon
// (a follower of a since-restarted log) just waits like an at-horizon one.
//
// Frames are re-read and re-verified from the file rather than served from
// memory, so a tail can never ship bytes an fsync did not cover.
func (w *WAL) TailFrom(ctx context.Context, from uint64, max int, wait time.Duration) (WALTailResult, error) {
	if max <= 0 {
		max = DefaultTailBatch
	}
	var deadline <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		deadline = t.C
	}
	var prevBase, prevDurable uint64
	retried := false
	for {
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			return WALTailResult{}, ErrClosed
		}
		if w.err != nil {
			err := w.err
			w.mu.Unlock()
			return WALTailResult{}, err
		}
		res := WALTailResult{DurableLSN: w.durable, BaseLSN: w.base}
		wake := w.tailWake
		w.mu.Unlock()
		if from < res.BaseLSN {
			return res, ErrWALTruncated
		}
		if res.DurableLSN > from {
			frames, err := readTailFrames(w.path, from, res.DurableLSN, max)
			if err != nil {
				return res, err
			}
			if len(frames) > 0 {
				res.Frames = frames
				return res, nil
			}
			// A checkpoint raced between the snapshot and the file read:
			// the frames we promised were truncated away. Loop to observe
			// the new floor and report it properly. If neither the floor
			// nor the horizon moved, the frames are genuinely absent (a log
			// whose file was replaced or reset behind the counters);
			// report truncation so the follower re-seeds instead of
			// spinning on a promise the file cannot keep.
			if retried && prevBase == res.BaseLSN && prevDurable == res.DurableLSN {
				return res, ErrWALTruncated
			}
			retried, prevBase, prevDurable = true, res.BaseLSN, res.DurableLSN
			continue
		}
		if wait <= 0 {
			return res, nil
		}
		select {
		case <-ctx.Done():
			return res, ctx.Err()
		case <-deadline:
			return res, nil
		case <-wake:
		}
	}
}

// readTailFrames scans the log file and returns up to max intact frames
// with LSN in (from, durable]. The scan re-verifies every CRC from the
// header forward, so concurrent appends past the durable horizon (or a
// torn in-progress write) are simply not reached.
func readTailFrames(path string, from, durable uint64, max int) ([]WALRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: wal tail read: %w", err)
	}
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return nil, nil
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
	return out, nil
}
