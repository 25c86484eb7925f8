package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"

	"repro/internal/catalog"
	"repro/internal/editops"
	"repro/internal/histogram"
	"repro/internal/imaging"
	"repro/internal/store"
	"repro/internal/store/segment"
)

// Storage backend. A database with a Path stores its objects in the
// segmented engine (internal/store/segment): every object is one entry
// whose payload carries the full catalog record and, for binary images,
// the raster. An in-memory database has no engine (db.seg == nil); the
// seg* write helpers below are where that case returns early.
//
// Durability contract: the write-ahead log is the acknowledgement
// authority. Writes land in the engine's memtable plus the WAL; the WAL
// checkpoint floor advances only after Engine.Seal has made everything
// staged durable in the segment set (Sync, Close, Compact, and the
// post-replay checkpoint all seal first, under db.mu so no writer can slip
// a record between the seal and the truncation). Background seals and
// compactions never touch the WAL — they only add redundancy, so replay
// over an already-sealed state is a no-op thanks to the idempotent redo
// records.

// ErrIncompatible is returned when a store was built with a different
// quantizer than the one configured.
var ErrIncompatible = errors.New("core: store quantizer does not match configuration")

// quantizerMismatchError carries the stored quantizer name so Open can
// adopt it when the caller did not configure one explicitly. It unwraps to
// ErrIncompatible.
type quantizerMismatchError struct {
	stored, configured string
}

func (e *quantizerMismatchError) Error() string {
	return fmt.Sprintf("%v: store has %q, config has %q", ErrIncompatible, e.stored, e.configured)
}

func (e *quantizerMismatchError) Unwrap() error { return ErrIncompatible }

// ErrLegacyStore is returned when Path holds a database in a format this
// build no longer reads: a page-store file, or segments of format
// version 1. There is no in-place migration; the error message names the
// route.
var ErrLegacyStore = errors.New("core: legacy store format")

// ErrNotDatabase is returned when a regular file that is not a database
// sits at Path (a database keeps its state beside Path, never in it).
var ErrNotDatabase = errors.New("core: path holds a file that is not an esidb database")

// legacyPageStoreMagic opened every page-store file.
const legacyPageStoreMagic = "ESIDBv1\x00"

func legacyStoreError(where, what string) error {
	return fmt.Errorf("%w: %s: %s; export it with `esidb dump` from a build that still reads it (the commit before the page store was removed) and re-create it with `esidb load`", ErrLegacyStore, where, what)
}

// checkPathFile reads at most 8 bytes at path. Nothing there, a directory
// or an empty file is fine; the page-store magic is a legacy store, and
// any other file is refused so opening never scatters database files
// around somebody else's data.
func checkPathFile(path string) error {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	if fi, err := f.Stat(); err != nil || fi.IsDir() {
		return err
	}
	magic := make([]byte, len(legacyPageStoreMagic))
	n, err := io.ReadFull(f, magic)
	switch {
	case errors.Is(err, io.EOF): // empty file
		return nil
	case err != nil && !errors.Is(err, io.ErrUnexpectedEOF):
		return err
	case string(magic[:n]) == legacyPageStoreMagic:
		return legacyStoreError(path, "page-store file")
	}
	return fmt.Errorf("%w: %s", ErrNotDatabase, path)
}

// segMetaID is the reserved entry id carrying the store's configuration
// (quantizer, background). Catalog object ids start at 1, so 0 is free.
const segMetaID uint64 = 0

// segMetaMagic versions the meta entry payload.
const segMetaMagic = "ESGMETA1"

// SegmentDir returns the segment engine's directory for a database path.
func SegmentDir(path string) string { return path + ".segments" }

// encodeSegMeta renders the configuration entry payload.
func encodeSegMeta(qname string, bg imaging.RGB) []byte {
	buf := []byte(segMetaMagic)
	buf = appendString(buf, qname)
	return append(buf, bg.R, bg.G, bg.B)
}

// decodeSegMeta parses the configuration entry payload.
func decodeSegMeta(payload []byte) (qname string, bg imaging.RGB, err error) {
	r := &sliceReader{data: payload}
	magic, err := r.take(len(segMetaMagic))
	if err != nil || string(magic) != segMetaMagic {
		return "", imaging.RGB{}, fmt.Errorf("core: bad segment meta magic")
	}
	qname, err = r.readString()
	if err != nil {
		return "", imaging.RGB{}, fmt.Errorf("core: segment meta quantizer: %w", err)
	}
	bgb, err := r.take(3)
	if err != nil {
		return "", imaging.RGB{}, fmt.Errorf("core: segment meta background: %w", err)
	}
	if r.pos != len(r.data) {
		return "", imaging.RGB{}, fmt.Errorf("core: %d trailing segment meta bytes", len(r.data)-r.pos)
	}
	return qname, imaging.RGB{R: bgb[0], G: bgb[1], B: bgb[2]}, nil
}

// segEnsureMeta stages the configuration entry if the store has none yet
// (fresh directory, or one whose only state was a memtable lost to a
// crash). It rides the next seal; until then the WAL's own config record
// covers recovery.
func (db *DB) segEnsureMeta() error {
	_, ok, err := db.seg.Get(segMetaID)
	if err != nil || ok {
		return err
	}
	return db.seg.Put(segment.Entry{
		ID:      segMetaID,
		Kind:    segment.EntryMeta,
		Payload: encodeSegMeta(db.cfg.Quantizer.Name(), db.cfg.Background),
	})
}

// Object entry payload layout (everything after the entry header the
// segment format itself frames):
//
//	kind u8 | name (uvarint len + bytes) | kind-specific body
//
// binary body:  w uvarint | h uvarint | bins uvarint | counts uvarints |
//               raster rgb bytes (3*w*h)
// edited body:  widening u8 | seq (uvarint len + editops binary encoding)

// encodeSegBinaryPayload renders a binary image entry.
func encodeSegBinaryPayload(name string, img *imaging.Image, hist *histogram.Histogram) []byte {
	buf := make([]byte, 0, 16+len(name)+2*len(hist.Counts)+3*len(img.Pix))
	buf = append(buf, byte(catalog.KindBinary))
	buf = appendString(buf, name)
	buf = binary.AppendUvarint(buf, uint64(img.W))
	buf = binary.AppendUvarint(buf, uint64(img.H))
	buf = binary.AppendUvarint(buf, uint64(len(hist.Counts)))
	for _, c := range hist.Counts {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	for _, p := range img.Pix {
		buf = append(buf, p.R, p.G, p.B)
	}
	return buf
}

// encodeSegEditedPayload renders an edited image entry.
func encodeSegEditedPayload(name string, widening bool, seq *editops.Sequence) []byte {
	buf := []byte{byte(catalog.KindEdited)}
	buf = appendString(buf, name)
	if widening {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	enc := editops.EncodeBinary(seq)
	buf = binary.AppendUvarint(buf, uint64(len(enc)))
	return append(buf, enc...)
}

// decodeSegEntry parses an object entry payload back into a catalog
// object. The raster is materialized only when withRaster is set (the
// load path skips it; binaryRaster reads it on demand). The histogram is
// fully validated either way.
func decodeSegEntry(id uint64, payload []byte, withRaster bool) (*catalog.Object, *imaging.Image, error) {
	r := &sliceReader{data: payload}
	kindB, err := r.take(1)
	if err != nil {
		return nil, nil, fmt.Errorf("core: segment entry %d: %w", id, err)
	}
	name, err := r.readString()
	if err != nil {
		return nil, nil, fmt.Errorf("core: segment entry %d name: %w", id, err)
	}
	obj := &catalog.Object{ID: id, Kind: catalog.Kind(kindB[0]), Name: name}
	switch obj.Kind {
	case catalog.KindBinary:
		w, err := r.readUvarint()
		if err != nil {
			return nil, nil, err
		}
		h, err := r.readUvarint()
		if err != nil {
			return nil, nil, err
		}
		obj.W, obj.H = int(w), int(h)
		bins, err := r.readUvarint()
		if err != nil {
			return nil, nil, err
		}
		hist := histogram.New(int(bins))
		total := 0
		for b := range hist.Counts {
			c, err := r.readUvarint()
			if err != nil {
				return nil, nil, err
			}
			hist.Counts[b] = int(c)
			total += int(c)
		}
		hist.Total = total
		if err := hist.Validate(); err != nil {
			return nil, nil, fmt.Errorf("core: segment entry %d: %w", id, err)
		}
		if hist.Total != obj.W*obj.H {
			return nil, nil, fmt.Errorf("core: segment entry %d: histogram total %d for %dx%d", id, hist.Total, obj.W, obj.H)
		}
		obj.Hist = hist
		pix, err := r.take(3 * obj.W * obj.H)
		if err != nil {
			return nil, nil, fmt.Errorf("core: segment entry %d raster: %w", id, err)
		}
		var img *imaging.Image
		if withRaster {
			img = imaging.New(obj.W, obj.H)
			for i := range img.Pix {
				img.Pix[i] = imaging.RGB{R: pix[3*i], G: pix[3*i+1], B: pix[3*i+2]}
			}
		}
		if r.pos != len(r.data) {
			return nil, nil, fmt.Errorf("core: segment entry %d: %d trailing bytes", id, len(r.data)-r.pos)
		}
		return obj, img, nil
	case catalog.KindEdited:
		wFlag, err := r.take(1)
		if err != nil {
			return nil, nil, err
		}
		obj.Widening = wFlag[0] == 1
		seq, err := r.readSequence()
		if err != nil {
			return nil, nil, fmt.Errorf("core: segment entry %d sequence: %w", id, err)
		}
		obj.Seq = seq
		if r.pos != len(r.data) {
			return nil, nil, fmt.Errorf("core: segment entry %d: %d trailing bytes", id, len(r.data)-r.pos)
		}
		return obj, nil, nil
	default:
		return nil, nil, fmt.Errorf("core: segment entry %d: unknown kind %d", id, kindB[0])
	}
}

// segPutBinaryLocked stages a binary image in the segment memtable.
// Caller holds db.mu.
func (db *DB) segPutBinaryLocked(id uint64, name string, img *imaging.Image, hist *histogram.Histogram) error {
	if db.seg == nil {
		return nil // in-memory
	}
	return db.seg.Put(segment.Entry{
		ID:      id,
		Kind:    segment.EntryPut,
		Payload: encodeSegBinaryPayload(name, img, hist),
	})
}

// segPutEditedLocked stages an edited image — its operation sequence, not
// a raster and not its bounds — in the segment memtable. Caller holds
// db.mu.
func (db *DB) segPutEditedLocked(id uint64, name string, widening bool, seq *editops.Sequence) error {
	if db.seg == nil {
		return nil // in-memory
	}
	return db.seg.Put(segment.Entry{
		ID:      id,
		Kind:    segment.EntryPut,
		Payload: encodeSegEditedPayload(name, widening, seq),
	})
}

// segDeleteLocked stages a tombstone. Caller holds db.mu.
func (db *DB) segDeleteLocked(id uint64) error {
	if db.seg == nil {
		return nil // in-memory
	}
	return db.seg.Delete(id)
}

// loadFromSegments restores the catalog and the BWM index from the segment
// set. Rasters are not retained; binaryRaster reads through the engine on
// demand.
func (db *DB) loadFromSegments() error {
	// Validate the configuration entry first so a quantizer mismatch
	// surfaces (for adoption) before any object is restored.
	if ent, ok, err := db.seg.Get(segMetaID); err != nil {
		return err
	} else if ok {
		qname, bg, err := decodeSegMeta(ent.Payload)
		if err != nil {
			return err
		}
		if qname != db.cfg.Quantizer.Name() {
			return &quantizerMismatchError{stored: qname, configured: db.cfg.Quantizer.Name()}
		}
		if bg != db.cfg.Background {
			return fmt.Errorf("%w: store background %v, config %v", ErrIncompatible, bg, db.cfg.Background)
		}
	}
	// Two passes in ascending id order: binary objects first, so that when
	// edited objects are routed into the BWM index their bases are already
	// present. Segment scan order is newest-segment-first, not insertion
	// order, so entries are buffered and sorted — the restored catalog then
	// lists ids ascending.
	var binaryEnts, editedEnts []segment.Entry
	err := db.seg.Scan(func(ent segment.Entry) error {
		if ent.ID == segMetaID {
			return nil
		}
		if len(ent.Payload) == 0 {
			return fmt.Errorf("core: segment entry %d: empty payload", ent.ID)
		}
		if catalog.Kind(ent.Payload[0]) == catalog.KindEdited {
			editedEnts = append(editedEnts, ent)
		} else {
			binaryEnts = append(binaryEnts, ent)
		}
		return nil
	})
	if err != nil {
		return err
	}
	byID := func(ents []segment.Entry) func(i, j int) bool {
		return func(i, j int) bool { return ents[i].ID < ents[j].ID }
	}
	sort.Slice(binaryEnts, byID(binaryEnts))
	sort.Slice(editedEnts, byID(editedEnts))
	for _, ent := range binaryEnts {
		obj, _, err := decodeSegEntry(ent.ID, ent.Payload, false)
		if err != nil {
			return err
		}
		if obj.Hist.Bins() != db.cfg.Quantizer.Bins() {
			return fmt.Errorf("%w: histogram with %d bins", ErrIncompatible, obj.Hist.Bins())
		}
		if err := db.cat.RestoreObject(obj); err != nil {
			return err
		}
		db.idx.InsertBinary(obj.ID)
	}
	for _, ent := range editedEnts {
		obj, _, err := decodeSegEntry(ent.ID, ent.Payload, false)
		if err != nil {
			return err
		}
		if err := db.cat.RestoreObject(obj); err != nil {
			return err
		}
		db.idx.InsertEdited(obj.ID, obj.Seq.BaseID, obj.Widening)
	}
	return nil
}

// segRaster reads a binary image's raster through the segment engine.
func (db *DB) segRaster(id uint64) (*imaging.Image, error) {
	if db.seg == nil {
		// in-memory: every raster lives in db.rasters, so a miss there is
		// a missing image.
		return nil, fmt.Errorf("core: raster for image %d: %w", id, catalog.ErrNotFound)
	}
	var img *imaging.Image
	ok, err := db.seg.View(id, func(ent segment.Entry) (err error) {
		_, img, err = decodeSegEntry(id, ent.Payload, true)
		return err
	})
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("core: raster for image %d: %w", id, catalog.ErrNotFound)
	}
	if img == nil {
		return nil, fmt.Errorf("core: segment entry %d is not a binary image", id)
	}
	return img, nil
}

// persistDurableLocked makes every applied mutation durable in the segment
// set — the precondition for advancing the WAL checkpoint floor. Only
// called on a persistent database. Caller holds db.mu.
func (db *DB) persistDurableLocked() error {
	if err := db.segEnsureMeta(); err != nil {
		return err
	}
	return db.seg.Seal()
}

// Compact seals the memtable and merges segments until no eligible run
// remains, reclaiming the bytes of deleted and superseded entries. It
// compacts online: the seal and the WAL checkpoint happen under db.mu — no
// writer can append a record between the seal and the truncation — and the
// merge runs outside the lock so writes and queries proceed during it.
// In-memory databases are a no-op.
func (db *DB) Compact() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return store.ErrClosed
	}
	seg := db.seg
	if seg == nil {
		db.mu.Unlock()
		return nil // in-memory
	}
	err := seg.Seal()
	if err == nil {
		err = db.walCheckpointLocked()
	}
	db.mu.Unlock()
	if err != nil {
		return err
	}
	return seg.Compact()
}

// SegmentStats snapshots the storage engine (ok=false for in-memory
// databases).
func (db *DB) SegmentStats() (segment.EngineStats, bool) {
	if db.seg == nil {
		return segment.EngineStats{}, false
	}
	return db.seg.Stats(), true
}

// SegmentManifest returns the live segment listing (ok=false for in-memory
// databases).
func (db *DB) SegmentManifest() (segment.Manifest, bool) {
	if db.seg == nil {
		return segment.Manifest{}, false
	}
	return db.seg.Manifest(), true
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

type sliceReader struct {
	data []byte
	pos  int
}

func (r *sliceReader) take(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.data) {
		return nil, fmt.Errorf("truncated at %d (+%d of %d)", r.pos, n, len(r.data))
	}
	out := r.data[r.pos : r.pos+n]
	r.pos += n
	return out, nil
}

func (r *sliceReader) readUvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("bad uvarint at %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *sliceReader) readString() (string, error) {
	n, err := r.readUvarint()
	if err != nil {
		return "", err
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}
