package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/colorspace"
	"repro/internal/editops"
	"repro/internal/imaging"
	"repro/internal/obs"
	"repro/internal/store"
)

// Logical redo records for the write-ahead log. After a crash the segment
// set holds at least everything sealed by the last checkpoint (Sync/Close);
// every acknowledged mutation since then lives in the WAL as one of these
// records and is redone at Open. Records carry everything replay needs to
// rebuild the operation from a checkpoint-consistent store — including
// raster bytes, since an unsealed memtable dies with the process.
//
// Replay is idempotent by construction: inserts of an id already in the
// catalog are skipped, deletes of an absent id are skipped, and sequence
// updates carry the full post-update sequence (not a delta), so applying
// the log twice leaves the same state as applying it once. Idempotence is
// what makes the recovery protocol safe against crashes during recovery
// itself and against a checkpoint racing a crash: a record that was
// already absorbed into a checkpoint replays as a no-op.

const (
	// walRecConfig declares the quantizer and background a fresh log
	// segment was written under; replay verifies (or, for a defaulted
	// configuration, adopts) it before applying mutations.
	walRecConfig       byte = 1
	walRecInsertBinary byte = 2
	walRecInsertEdited byte = 3
	// walRecUpdateSeq carries an edited image's full replacement sequence
	// (AppendOps logs the result, not the appended suffix, for idempotence).
	walRecUpdateSeq byte = 4
	walRecDelete    byte = 5
)

func encodeWALConfig(qname string, bg imaging.RGB) []byte {
	buf := []byte{walRecConfig}
	buf = appendString(buf, qname)
	return append(buf, bg.R, bg.G, bg.B)
}

func encodeWALInsertBinary(id uint64, name string, img *imaging.Image) []byte {
	buf := []byte{walRecInsertBinary}
	buf = binary.AppendUvarint(buf, id)
	buf = appendString(buf, name)
	buf = binary.AppendUvarint(buf, uint64(img.W))
	buf = binary.AppendUvarint(buf, uint64(img.H))
	for _, p := range img.Pix {
		buf = append(buf, p.R, p.G, p.B)
	}
	return buf
}

func encodeWALInsertEdited(id uint64, name string, seq *editops.Sequence) []byte {
	buf := []byte{walRecInsertEdited}
	buf = binary.AppendUvarint(buf, id)
	buf = appendString(buf, name)
	enc := editops.EncodeBinary(seq)
	buf = binary.AppendUvarint(buf, uint64(len(enc)))
	return append(buf, enc...)
}

func encodeWALUpdateSeq(id uint64, seq *editops.Sequence) []byte {
	buf := []byte{walRecUpdateSeq}
	buf = binary.AppendUvarint(buf, id)
	enc := editops.EncodeBinary(seq)
	buf = binary.AppendUvarint(buf, uint64(len(enc)))
	return append(buf, enc...)
}

func encodeWALDelete(id uint64) []byte {
	buf := []byte{walRecDelete}
	return binary.AppendUvarint(buf, id)
}

// walAppendLocked logs one mutation. enc runs only when a WAL is attached,
// so in-memory databases pay nothing. Caller holds db.mu; the returned
// ticket (nil without a WAL) is waited on after the lock is released so
// concurrent writers share fsyncs. A traced request (ctx carries an obs
// span) gets a "wal.append" child covering the encode+frame write; the
// durability wait is timed separately by WALTicket.Wait.
func (db *DB) walAppendLocked(ctx context.Context, enc func() []byte) (*store.WALTicket, error) {
	if db.wal == nil {
		return nil, nil
	}
	sp := obs.SpanFromContext(ctx).StartChild("wal.append")
	tk, err := db.wal.Append(enc())
	sp.Count(obs.TWALRecords, 1)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	return tk, err
}

// walQueryBarrier is the read-your-writes seam on the query path: when the
// WAL has acknowledged-but-unsynced records in flight, the query waits for
// the group commit covering them before scanning, so a reader never races
// the durability of writes it just made. On an idle log this is one mutex
// acquisition. The wait is recorded on the trace as a "wal.commit-barrier"
// span (with the fsync-wait child from internal/store under it); a barrier
// failure degrades to a span attribute rather than failing the read — the
// scan serves from memory regardless — but a canceled ctx still aborts.
func (db *DB) walQueryBarrier(ctx context.Context, tr *obs.Trace) error {
	if db.wal == nil {
		return nil
	}
	tk := db.wal.Barrier()
	sp := tr.StartSpan("wal.commit-barrier")
	if tk == nil {
		sp.SetAttr("pending", "false")
		sp.End()
		return nil
	}
	sp.SetAttr("pending", "true")
	err := tk.Wait(obs.ContextWithSpan(ctx, sp))
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return nil
}

// walLogConfig ensures a log that is empty (fresh or just checkpointed)
// opens with a configuration record, so recovery of a never-checkpointed
// database still knows its quantizer. The record is written unsynced: it
// only matters alongside later mutations, and the fsync that commits the
// first of them commits this earlier frame too, so an Open or a
// checkpoint pays no fsync of its own.
func (db *DB) walLogConfig() error {
	if !db.wal.Empty() {
		return nil
	}
	return db.wal.AppendUnsynced(encodeWALConfig(db.cfg.Quantizer.Name(), db.cfg.Background))
}

// walCheckpointLocked truncates the log after the caller has made the
// store durable (memtable sealed, manifest swapped), then re-seeds the
// configuration record. Only called on a persistent database. Caller
// holds db.mu.
func (db *DB) walCheckpointLocked() error {
	if err := db.wal.Checkpoint(); err != nil {
		return err
	}
	return db.walLogConfig()
}

// replayWAL applies the recovered records in order and, if any mutated the
// database, immediately checkpoints so the next open starts from a clean
// log. Returns the DB to use afterwards — replay of a configuration record
// may rebuild it around an adopted quantizer.
func (db *DB) replayWAL(recs []store.WALRecord, defaulted bool) (*DB, error) {
	mutated := false
	for _, rec := range recs {
		m, rebuilt, err := db.applyWALRecord(rec.Payload, defaulted)
		if err != nil {
			return nil, fmt.Errorf("core: wal replay lsn %d: %w", rec.LSN, err)
		}
		if rebuilt != nil {
			db = rebuilt
		}
		mutated = mutated || m
	}
	if mutated {
		db.mu.Lock()
		err := db.persistDurableLocked()
		if err == nil {
			err = db.walCheckpointLocked()
		}
		db.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("core: post-replay checkpoint: %w", err)
		}
		return db, nil
	}
	return db, db.walLogConfig()
}

// applyWALRecord redoes one logical record idempotently. It reports
// whether the database actually changed and, for an adopted configuration
// record, the rebuilt DB.
func (db *DB) applyWALRecord(payload []byte, defaulted bool) (bool, *DB, error) {
	r := &sliceReader{data: payload}
	typ, err := r.take(1)
	if err != nil {
		return false, nil, err
	}
	switch typ[0] {
	case walRecConfig:
		qname, err := r.readString()
		if err != nil {
			return false, nil, err
		}
		bgb, err := r.take(3)
		if err != nil {
			return false, nil, err
		}
		bg := imaging.RGB{R: bgb[0], G: bgb[1], B: bgb[2]}
		if qname != db.cfg.Quantizer.Name() {
			if !defaulted {
				return false, nil, &quantizerMismatchError{stored: qname, configured: db.cfg.Quantizer.Name()}
			}
			q, perr := colorspace.ParseQuantizer(qname)
			if perr != nil {
				return false, nil, fmt.Errorf("%w: %v", ErrIncompatible, perr)
			}
			cfg := db.cfg
			cfg.Quantizer = q
			cfg.Background = bg
			// Only Open's replay runs defaulted, so there is an engine.
			nd := newDB(cfg)
			nd.seg, nd.wal = db.seg, db.wal
			if err := nd.loadFromSegments(); err != nil {
				return false, nil, err
			}
			if err := nd.segEnsureMeta(); err != nil {
				return false, nil, err
			}
			return false, nd, nil
		}
		if bg != db.cfg.Background {
			return false, nil, fmt.Errorf("%w: wal background %v, config %v", ErrIncompatible, bg, db.cfg.Background)
		}
		return false, nil, nil

	case walRecInsertBinary:
		id, err := r.readUvarint()
		if err != nil {
			return false, nil, err
		}
		name, err := r.readString()
		if err != nil {
			return false, nil, err
		}
		w, err := r.readUvarint()
		if err != nil {
			return false, nil, err
		}
		h, err := r.readUvarint()
		if err != nil {
			return false, nil, err
		}
		pix, err := r.take(3 * int(w) * int(h))
		if err != nil {
			return false, nil, err
		}
		if _, err := db.cat.Get(id); err == nil {
			return false, nil, nil // already absorbed into a checkpoint
		}
		img := imaging.New(int(w), int(h))
		for i := range img.Pix {
			img.Pix[i] = imaging.RGB{R: pix[3*i], G: pix[3*i+1], B: pix[3*i+2]}
		}
		db.mu.Lock()
		_, err = db.applyInsertBinaryLocked(id, name, img)
		db.mu.Unlock()
		return true, nil, err

	case walRecInsertEdited:
		id, err := r.readUvarint()
		if err != nil {
			return false, nil, err
		}
		name, err := r.readString()
		if err != nil {
			return false, nil, err
		}
		seq, err := r.readSequence()
		if err != nil {
			return false, nil, err
		}
		if _, err := db.cat.Get(id); err == nil {
			return false, nil, nil
		}
		db.mu.Lock()
		_, err = db.applyInsertEditedLocked(id, name, seq)
		db.mu.Unlock()
		return true, nil, err

	case walRecUpdateSeq:
		id, err := r.readUvarint()
		if err != nil {
			return false, nil, err
		}
		seq, err := r.readSequence()
		if err != nil {
			return false, nil, err
		}
		if _, err := db.cat.Edited(id); errors.Is(err, catalog.ErrNotFound) {
			return false, nil, nil // deleted later in the log, or never checkpointed
		} else if err != nil {
			return false, nil, err
		}
		db.mu.Lock()
		err = db.applySetSequenceLocked(id, seq)
		db.mu.Unlock()
		return true, nil, err

	case walRecDelete:
		id, err := r.readUvarint()
		if err != nil {
			return false, nil, err
		}
		if _, err := db.cat.Get(id); errors.Is(err, catalog.ErrNotFound) {
			return false, nil, nil
		} else if err != nil {
			return false, nil, err
		}
		db.mu.Lock()
		err = db.applyDeleteLocked(id)
		db.mu.Unlock()
		return true, nil, err

	default:
		return false, nil, fmt.Errorf("core: unknown wal record type %d", typ[0])
	}
}

// readSequence reads a length-prefixed binary-encoded operation sequence.
func (r *sliceReader) readSequence() (*editops.Sequence, error) {
	n, err := r.readUvarint()
	if err != nil {
		return nil, err
	}
	raw, err := r.take(int(n))
	if err != nil {
		return nil, err
	}
	return editops.DecodeBinary(raw)
}

// ErrNoWAL reports a replication operation on a database without a
// write-ahead log (in-memory databases have nothing to ship or apply).
var ErrNoWAL = errors.New("core: database has no write-ahead log")

// WALTail serves one page of the replication stream: durable log frames
// with LSN above the cursor (see store.WAL.TailFrom for the full cursor
// contract, including ErrWALTruncated below the checkpoint floor).
func (db *DB) WALTail(ctx context.Context, from uint64, max int, wait time.Duration) (store.WALTailResult, error) {
	db.mu.RLock()
	wal, closed := db.wal, db.closed
	db.mu.RUnlock()
	if closed {
		return store.WALTailResult{}, store.ErrClosed
	}
	if wal == nil {
		return store.WALTailResult{}, ErrNoWAL
	}
	return wal.TailFrom(ctx, from, max, wait)
}

// ApplyRedoRecord applies one shipped log record to a live database — the
// follower half of WAL shipping. The record goes through the same
// idempotent redo machinery crash recovery uses (insert of a present id
// and delete of an absent one are no-ops; configuration records verify the
// quantizer instead of adopting it), then is re-logged to this database's
// own WAL so a follower crash recovers locally without re-seeding from
// zero. The re-log is fire-and-forget: follower durability rides the next
// group commit, and a follower that loses its tail re-tails idempotently.
func (db *DB) ApplyRedoRecord(ctx context.Context, payload []byte) error {
	db.mu.RLock()
	closed := db.closed
	db.mu.RUnlock()
	if closed {
		return store.ErrClosed
	}
	mutated, rebuilt, err := db.applyWALRecord(payload, false)
	if err != nil {
		return err
	}
	if rebuilt != nil {
		// defaulted=false never adopts a foreign quantizer; a rebuild here
		// would mean the follower silently diverged from its own config.
		return fmt.Errorf("core: replicated config record rebuilt database")
	}
	if !mutated || db.wal == nil {
		return nil
	}
	db.mu.Lock()
	_, err = db.walAppendLocked(ctx, func() []byte { return payload })
	db.mu.Unlock()
	return err
}

// WALStats snapshots the write-ahead log counters; ok is false for
// in-memory databases (which have no log).
func (db *DB) WALStats() (st store.WALStats, ok bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.wal == nil {
		return store.WALStats{}, false
	}
	return db.wal.Stats(), true
}

// Crash abandons the database without sealing the memtable or flushing
// the log — the files are left exactly as a kill -9 would leave them, and
// a subsequent Open must recover. For crash tests; a production shutdown
// is Close.
func (db *DB) Crash() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if db.seg == nil {
		return nil // in-memory: nothing on disk to abandon
	}
	err := db.wal.Abandon()
	// The engine's Close does not seal: the memtable is dropped unsealed.
	if serr := db.seg.Close(); err == nil {
		err = serr
	}
	return err
}
