package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"

	"repro/internal/catalog"
	"repro/internal/editops"
	"repro/internal/histogram"
	"repro/internal/imaging"
	"repro/internal/store"
)

// Persistence layer: rasters are individual store records; the whole
// catalog (histograms, sequences, raster record pointers, classification
// flags) is serialized into one record named by the "catalog" root. The
// catalog record is rewritten on Sync and Close; rasters are written at
// insert time.

const catalogMagic = "ESCAT1\x00\x00"

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

func openOrCreate(path string, opts store.Options) (*store.Store, error) {
	st, err := store.Open(path, opts)
	if err == nil {
		return st, nil
	}
	if errors.Is(err, fs.ErrNotExist) {
		return store.Create(path, opts)
	}
	return nil, err
}

// putRaster encodes a raster as [w u32][h u32][rgb…] and stores it.
func (db *DB) putRaster(img *imaging.Image) (store.RecordID, error) {
	buf := make([]byte, 8+3*len(img.Pix))
	binary.LittleEndian.PutUint32(buf[0:], uint32(img.W))
	binary.LittleEndian.PutUint32(buf[4:], uint32(img.H))
	for i, p := range img.Pix {
		buf[8+3*i] = p.R
		buf[8+3*i+1] = p.G
		buf[8+3*i+2] = p.B
	}
	return db.st.Put(buf)
}

func (db *DB) getRaster(rec store.RecordID) (*imaging.Image, error) {
	return getRasterFrom(db.st, rec)
}

func getRasterFrom(st *store.Store, rec store.RecordID) (*imaging.Image, error) {
	buf, err := st.Get(rec)
	if err != nil {
		return nil, err
	}
	if len(buf) < 8 {
		return nil, fmt.Errorf("core: raster record %s truncated", rec)
	}
	w := int(binary.LittleEndian.Uint32(buf[0:]))
	h := int(binary.LittleEndian.Uint32(buf[4:]))
	if w < 0 || h < 0 || len(buf) != 8+3*w*h {
		return nil, fmt.Errorf("core: raster record %s has inconsistent dimensions %dx%d for %d bytes", rec, w, h, len(buf))
	}
	img := imaging.New(w, h)
	for i := range img.Pix {
		img.Pix[i] = imaging.RGB{R: buf[8+3*i], G: buf[8+3*i+1], B: buf[8+3*i+2]}
	}
	return img, nil
}

// persistCatalogLocked serializes the catalog and updates the root. The
// previous catalog record is deleted afterwards so the store does not grow
// without bound. Caller holds db.mu.
func (db *DB) persistCatalogLocked() error {
	buf := []byte(catalogMagic)
	buf = appendString(buf, db.cfg.Quantizer.Name())
	buf = append(buf, db.cfg.Background.R, db.cfg.Background.G, db.cfg.Background.B)
	ids := db.cat.AllIDs()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		obj, err := db.cat.Get(id)
		if err != nil {
			return err
		}
		buf = binary.AppendUvarint(buf, obj.ID)
		buf = append(buf, byte(obj.Kind))
		buf = appendString(buf, obj.Name)
		switch obj.Kind {
		case catalog.KindBinary:
			buf = binary.AppendUvarint(buf, uint64(obj.W))
			buf = binary.AppendUvarint(buf, uint64(obj.H))
			rec := db.rasterRecs[obj.ID]
			buf = binary.LittleEndian.AppendUint32(buf, rec.Page)
			buf = binary.LittleEndian.AppendUint16(buf, rec.Slot)
			buf = binary.AppendUvarint(buf, uint64(len(obj.Hist.Counts)))
			for _, c := range obj.Hist.Counts {
				buf = binary.AppendUvarint(buf, uint64(c))
			}
		case catalog.KindEdited:
			if obj.Widening {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
			seq := editops.EncodeBinary(obj.Seq)
			buf = binary.AppendUvarint(buf, uint64(len(seq)))
			buf = append(buf, seq...)
		default:
			return fmt.Errorf("core: persist: unknown kind %d", obj.Kind)
		}
	}
	rec, err := db.st.Put(buf)
	if err != nil {
		return err
	}
	old, hadOld := db.st.Root("catalog")
	if err := db.st.SetRoot("catalog", rec); err != nil {
		return err
	}
	if hadOld && !old.IsZero() {
		if err := db.st.Delete(old); err != nil && !errors.Is(err, store.ErrNotFound) {
			return err
		}
	}
	return nil
}

// load restores the catalog, BWM index and signature index from the store.
// A fresh store (no catalog root) loads as an empty database.
func (db *DB) load() error {
	rec, ok := db.st.Root("catalog")
	if !ok {
		return nil
	}
	buf, err := db.st.Get(rec)
	if err != nil {
		return err
	}
	r := &sliceReader{data: buf}
	magic, err := r.take(len(catalogMagic))
	if err != nil || string(magic) != catalogMagic {
		return fmt.Errorf("core: bad catalog record magic")
	}
	qname, err := r.readString()
	if err != nil {
		return fmt.Errorf("core: catalog quantizer: %w", err)
	}
	if qname != db.cfg.Quantizer.Name() {
		return &quantizerMismatchError{stored: qname, configured: db.cfg.Quantizer.Name()}
	}
	bg, err := r.take(3)
	if err != nil {
		return fmt.Errorf("core: catalog background: %w", err)
	}
	stored := imaging.RGB{R: bg[0], G: bg[1], B: bg[2]}
	if stored != db.cfg.Background {
		return fmt.Errorf("%w: store background %v, config %v", ErrIncompatible, stored, db.cfg.Background)
	}
	countBytes, err := r.take(4)
	if err != nil {
		return err
	}
	count := int(binary.LittleEndian.Uint32(countBytes))
	for i := 0; i < count; i++ {
		id, err := r.readUvarint()
		if err != nil {
			return fmt.Errorf("core: object %d id: %w", i, err)
		}
		kindB, err := r.take(1)
		if err != nil {
			return err
		}
		name, err := r.readString()
		if err != nil {
			return err
		}
		obj := &catalog.Object{ID: id, Kind: catalog.Kind(kindB[0]), Name: name}
		switch obj.Kind {
		case catalog.KindBinary:
			w, err := r.readUvarint()
			if err != nil {
				return err
			}
			h, err := r.readUvarint()
			if err != nil {
				return err
			}
			obj.W, obj.H = int(w), int(h)
			recBytes, err := r.take(6)
			if err != nil {
				return err
			}
			db.rasterRecs[id] = store.RecordID{
				Page: binary.LittleEndian.Uint32(recBytes[0:]),
				Slot: binary.LittleEndian.Uint16(recBytes[4:]),
			}
			bins, err := r.readUvarint()
			if err != nil {
				return err
			}
			if int(bins) != db.cfg.Quantizer.Bins() {
				return fmt.Errorf("%w: histogram with %d bins", ErrIncompatible, bins)
			}
			hist := histogram.New(int(bins))
			total := 0
			for b := range hist.Counts {
				c, err := r.readUvarint()
				if err != nil {
					return err
				}
				hist.Counts[b] = int(c)
				total += int(c)
			}
			hist.Total = total
			if err := hist.Validate(); err != nil {
				return fmt.Errorf("core: object %d: %w", id, err)
			}
			if hist.Total != obj.W*obj.H {
				return fmt.Errorf("core: object %d: histogram total %d for %dx%d", id, hist.Total, obj.W, obj.H)
			}
			obj.Hist = hist
		case catalog.KindEdited:
			wFlag, err := r.take(1)
			if err != nil {
				return err
			}
			obj.Widening = wFlag[0] == 1
			n, err := r.readUvarint()
			if err != nil {
				return err
			}
			seqBytes, err := r.take(int(n))
			if err != nil {
				return err
			}
			seq, err := editops.DecodeBinary(seqBytes)
			if err != nil {
				return fmt.Errorf("core: object %d sequence: %w", id, err)
			}
			obj.Seq = seq
		default:
			return fmt.Errorf("core: object %d: unknown kind %d", id, kindB[0])
		}
		if err := db.cat.RestoreObject(obj); err != nil {
			return err
		}
		// Rebuild the in-memory structures.
		if obj.Kind == catalog.KindBinary {
			db.idx.InsertBinary(id)
		} else {
			db.idx.InsertEdited(id, obj.Seq.BaseID, obj.Widening)
		}
	}
	if r.pos != len(r.data) {
		return fmt.Errorf("core: %d trailing catalog bytes", len(r.data)-r.pos)
	}
	return nil
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

// Compact rewrites a persistent database into a fresh store file — live
// rasters and one clean catalog record, no dead pages or slot garbage — and
// atomically replaces the old file. In-memory databases are a no-op. The
// database remains usable afterwards.
func (db *DB) Compact() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return store.ErrClosed
	}
	if db.seg != nil {
		// Segmented stores compact online. Seal and advance the WAL
		// checkpoint floor while holding db.mu — no writer can append a
		// record between the seal and the truncation — then run the merge
		// outside the lock so writes and queries proceed during it.
		err := db.seg.Seal()
		if err == nil {
			err = db.walCheckpointLocked()
		}
		db.mu.Unlock()
		if err != nil {
			return err
		}
		return db.seg.Compact()
	}
	defer db.mu.Unlock()
	if db.st == nil {
		return nil
	}
	tmpPath := db.cfg.Path + ".compact"
	os.Remove(tmpPath) // leftovers from a crashed compaction
	os.Remove(tmpPath + ".journal")
	newSt, err := store.Create(tmpPath, db.cfg.Store)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		newSt.Close()
		os.Remove(tmpPath)
		return err
	}

	oldSt, oldRecs := db.st, db.rasterRecs
	newRecs := make(map[uint64]store.RecordID, len(oldRecs))
	// Copy rasters through the cache (or the old store) into the new file.
	for _, id := range db.cat.Binaries() {
		img, ok := db.rasters[id]
		if !ok {
			rec, has := oldRecs[id]
			if !has {
				return fail(fmt.Errorf("core: compact: raster for %d missing", id))
			}
			var err error
			img, err = getRasterFrom(oldSt, rec)
			if err != nil {
				return fail(err)
			}
		}
		buf := make([]byte, 8+3*len(img.Pix))
		binary.LittleEndian.PutUint32(buf[0:], uint32(img.W))
		binary.LittleEndian.PutUint32(buf[4:], uint32(img.H))
		for i, px := range img.Pix {
			buf[8+3*i], buf[8+3*i+1], buf[8+3*i+2] = px.R, px.G, px.B
		}
		rec, err := newSt.Put(buf)
		if err != nil {
			return fail(err)
		}
		newRecs[id] = rec
	}
	// Point the DB at the new store and write the catalog into it.
	db.st, db.rasterRecs = newSt, newRecs
	if err := db.persistCatalogLocked(); err != nil {
		db.st, db.rasterRecs = oldSt, oldRecs
		return fail(err)
	}
	if err := newSt.Sync(); err != nil {
		db.st, db.rasterRecs = oldSt, oldRecs
		return fail(err)
	}
	// Swap the files: close both handles, rename, reopen.
	if err := newSt.Close(); err != nil {
		db.st, db.rasterRecs = oldSt, oldRecs
		os.Remove(tmpPath)
		return err
	}
	oldSt.Close()
	if err := os.Rename(tmpPath, db.cfg.Path); err != nil {
		// The old file is intact on disk; reopen it.
		reopened, openErr := store.Open(db.cfg.Path, db.cfg.Store)
		if openErr != nil {
			db.closed = true
			return fmt.Errorf("core: compact rename failed (%v) and reopen failed: %w", err, openErr)
		}
		db.st, db.rasterRecs = reopened, oldRecs
		os.Remove(tmpPath)
		return err
	}
	reopened, err := store.Open(db.cfg.Path, db.cfg.Store)
	if err != nil {
		db.closed = true
		return fmt.Errorf("core: compact: reopen after rename: %w", err)
	}
	db.st = reopened
	// The compacted file absorbed every logged mutation (the catalog was
	// persisted into it before the rename), so the log restarts empty. A
	// crash between the rename and this truncation is safe: replay over the
	// already-compacted state is idempotent.
	return db.walCheckpointLocked()
}
