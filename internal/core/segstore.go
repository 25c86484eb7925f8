package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/editops"
	"repro/internal/histogram"
	"repro/internal/imaging"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/store/segment"
)

// Segmented storage backend. When Config.Segment is set (and Path is
// non-empty), the database stores its objects in the segmented engine
// (internal/store/segment) instead of the single-file page store: every
// object is one entry whose payload carries the full catalog record (and,
// for binary images, the raster), and whose per-bin bound vector feeds the
// segment's histogram sketch so range queries can skip whole segments.
//
// Durability contract: the write-ahead log stays the acknowledgement
// authority exactly as in legacy mode. Writes land in the engine's
// memtable plus the WAL; the WAL checkpoint floor advances only after
// Engine.Seal has made everything staged durable in the segment set
// (Sync, Close, Compact, and the post-replay checkpoint all seal first,
// under db.mu so no writer can slip a record between the seal and the
// truncation). Background seals and compactions never touch the WAL —
// they only add redundancy, so replay over an already-sealed state is
// a no-op thanks to the idempotent redo records.

// segMetaID is the reserved entry id carrying the store's configuration
// (quantizer, background). Catalog object ids start at 1, so 0 is free.
const segMetaID uint64 = 0

// segMetaMagic versions the meta entry payload.
const segMetaMagic = "ESGMETA1"

// SegmentDir returns the segment engine's directory for a database path.
func SegmentDir(path string) string { return path + ".segments" }

// attachSegment wires a segment engine into the database: writes go to
// its memtable, and the RBM/BWM processors consult the per-segment bound
// sketches before paying for a rule walk. The prune hook is conservative
// by the engine's ShouldSkip contract — an id is skipped only when every
// segment that might hold it provably cannot intersect the query range —
// so query results are identical with and without it.
func (db *DB) attachSegment(seg *segment.Engine) {
	db.seg = seg
	prune := func(q query.Range, id uint64) bool {
		return seg.ShouldSkip(id, q.Bin, q.PctMin, q.PctMax)
	}
	db.rbmProc.Prune = prune
	db.bwmProc.SetPrune(prune)
}

// segPrune is the prune hook for query paths outside rbm.CheckEdited
// (the indexed mode's universal-box leaf fallback); it records the same
// trace counters.
func (db *DB) segPrune(q query.Range, id uint64, tr *obs.Trace) bool {
	if db.seg == nil {
		return false
	}
	tr.Count(obs.TSegmentSketchChecks, 1)
	if db.seg.ShouldSkip(id, q.Bin, q.PctMin, q.PctMax) {
		tr.Count(obs.TSegmentSkipped, 1)
		return true
	}
	return false
}

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

// segPutBinaryLocked stages a binary image in the segment memtable. The
// entry's bound vector is the exact histogram fractions (lo = hi), which
// keeps the segment sketch envelope tight. Caller holds db.mu.
func (db *DB) segPutBinaryLocked(id uint64, name string, img *imaging.Image, hist *histogram.Histogram) error {
	n := hist.Normalized()
	return db.seg.Put(segment.Entry{
		ID:      id,
		Kind:    segment.EntryPut,
		Payload: encodeSegBinaryPayload(name, img, hist),
		Lo:      n,
		Hi:      n,
	})
}

// segPutEditedLocked stages an edited image in the segment memtable with
// its BOUNDS envelope as the bound vector — exactly the interval the
// query path tests with Overlaps, which is what makes the sketch skip
// sound. A failed rule walk degrades to a boundless entry (poisoning that
// segment's sketch coverage, disabling skips for it) rather than failing
// the write. Caller holds db.mu.
func (db *DB) segPutEditedLocked(id uint64, name string, widening bool, seq *editops.Sequence) error {
	var lo, hi []float64
	if base, err := db.cat.Binary(seq.BaseID); err == nil {
		if bs, berr := db.engine.BoundsAll(base.Hist, base.W, base.H, seq.Ops); berr == nil {
			lo = make([]float64, len(bs))
			hi = make([]float64, len(bs))
			for i, b := range bs {
				lo[i], hi[i] = b.PctRange()
			}
		}
	}
	return db.seg.Put(segment.Entry{
		ID:      id,
		Kind:    segment.EntryPut,
		Payload: encodeSegEditedPayload(name, widening, seq),
		Lo:      lo,
		Hi:      hi,
	})
}

// loadFromSegments restores the catalog, BWM index and signature index
// from the segment set — the segmented counterpart of load. Rasters are
// not retained; binaryRaster reads through the engine on demand.
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
	// lists ids exactly like the legacy loader's id-ordered walk.
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
	ent, ok, err := db.seg.Get(id)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("core: raster for image %d: %w", id, catalog.ErrNotFound)
	}
	_, img, err := decodeSegEntry(id, ent.Payload, true)
	if err != nil {
		return nil, err
	}
	if img == nil {
		return nil, fmt.Errorf("core: segment entry %d is not a binary image", id)
	}
	return img, nil
}

// persistDurableLocked makes every applied mutation durable in the
// backing store — the precondition for advancing the WAL checkpoint
// floor. Legacy databases persist the catalog and fsync the page store;
// segmented databases seal the memtable into the segment set. Caller
// holds db.mu.
func (db *DB) persistDurableLocked() error {
	if db.seg != nil {
		if err := db.segEnsureMeta(); err != nil {
			return err
		}
		return db.seg.Seal()
	}
	if err := db.persistCatalogLocked(); err != nil {
		return err
	}
	return db.st.Sync()
}

// SegmentStats snapshots the segment engine (ok=false for databases not
// using the segmented backend).
func (db *DB) SegmentStats() (segment.EngineStats, bool) {
	if db.seg == nil {
		return segment.EngineStats{}, false
	}
	return db.seg.Stats(), true
}

// SegmentManifest returns the live segment listing (ok=false for
// databases not using the segmented backend).
func (db *DB) SegmentManifest() (segment.Manifest, bool) {
	if db.seg == nil {
		return segment.Manifest{}, false
	}
	return db.seg.Manifest(), true
}

// SetSegmentSketchSkip toggles the per-segment sketch skip filter at
// runtime; reports whether the database has a segment engine to toggle.
func (db *DB) SetSegmentSketchSkip(enabled bool) bool {
	if db.seg == nil {
		return false
	}
	db.seg.SetSketchSkip(enabled)
	return true
}
