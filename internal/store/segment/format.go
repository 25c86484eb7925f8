package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
)

// Segment file layout, version 2 (all integers little-endian):
//
//	header  (24B): magic "ESSEG1\x00\x00" | version u32 | segID u64 | reserved u32
//	entries (id-ascending, CRC-framed):
//	        frameLen u32 | id u64 | kind u8 | payload | crc u32
//	        (frameLen covers id..payload; crc covers the same bytes)
//	summary: n u32 | n × (id u64, fileOff u64)      — every summaryEvery-th entry
//	bloom:   nWords u32 | words…                     — split-block filter over ids
//	footer  (32B): summaryOff u64 | bloomOff u64 |
//	        count u32 | metaCRC u32 | magic "ESSEGFT1"
//
// metaCRC covers the summary+bloom region. A segment is written once,
// fsynced, and never modified; readers use the footer to load the summary
// and bloom into memory and serve point lookups with positioned reads
// against the entry region.
//
// Version 1 carried a per-bin bound vector in every frame and a sketch
// block before the footer; it is refused with ErrLegacyFormat, not read.

const (
	segMagic      = "ESSEG1\x00\x00"
	segFooterMag  = "ESSEGFT1"
	segVersion    = 2
	segHeaderSize = 24
	segFooterSize = 32
	// frameMin is the fixed part of a frame body: id u64 + kind u8.
	frameMin = 9
)

var segCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt wraps every structural-corruption failure the decoder
// detects, so callers can match the whole family with errors.Is.
var ErrCorrupt = errors.New("segment: corrupt")

// ErrLegacyFormat reports a segment file written in a format version this
// build no longer reads.
var ErrLegacyFormat = errors.New("segment: legacy format version")

func errTruncated(what string) error {
	return fmt.Errorf("%w: truncated %s", ErrCorrupt, what)
}

func errCorrupt(format string, a ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, a...)...)
}

// EntryKind tags an entry frame.
type EntryKind uint8

const (
	// EntryPut is a live object version; newest-wins across the stack.
	EntryPut EntryKind = 1
	// EntryTombstone marks an id deleted; compaction drops it once no
	// older segment can still hold a version of the id.
	EntryTombstone EntryKind = 2
	// EntryMeta is engine-client metadata (the database's configuration
	// record). It behaves like a put for lookup and merge purposes.
	EntryMeta EntryKind = 3
)

// Entry is one keyed record.
type Entry struct {
	ID      uint64
	Kind    EntryKind
	Payload []byte
}

// appendFrame encodes one entry frame.
func appendFrame(buf []byte, e Entry) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(frameMin+len(e.Payload)))
	start := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, e.ID)
	buf = append(buf, byte(e.Kind))
	buf = append(buf, e.Payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], segCRC))
}

// decodeFrameBody decodes the bytes between frameLen and crc (already
// CRC-verified by the caller).
func decodeFrameBody(body []byte) (Entry, error) {
	if len(body) < frameMin {
		return Entry{}, errTruncated("entry frame")
	}
	return Entry{
		ID:      binary.LittleEndian.Uint64(body),
		Kind:    EntryKind(body[8]),
		Payload: body[frameMin:],
	}, nil
}

type summaryEntry struct {
	id  uint64
	off uint64
}

// Writer streams entries (id-ascending) into a new segment file, building
// the summary and bloom as it goes. Entries become durable and
// visible only at Finish; a crash mid-write leaves an orphan file that the
// next Open removes.
type Writer struct {
	f            *os.File
	path         string
	segID        uint64
	off          int64
	count        int
	puts         int
	tombstones   int
	lastID       uint64
	ids          []uint64
	summary      []summaryEntry
	summaryEvery int
	bitsPerKey   int
	buf          []byte
}

// NewWriter creates the segment file. summaryEvery controls the sparse
// index stride (≤0 means 16); bitsPerKey sizes the bloom filter (≤0 means
// 10).
func NewWriter(path string, segID uint64, summaryEvery, bitsPerKey int) (*Writer, error) {
	if summaryEvery <= 0 {
		summaryEvery = 16
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer{
		f: f, path: path, segID: segID,
		summaryEvery: summaryEvery, bitsPerKey: bitsPerKey,
	}
	hdr := make([]byte, 0, segHeaderSize)
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, segVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, segID)
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	w.off = segHeaderSize
	return w, nil
}

// Append writes one entry. IDs must be strictly ascending.
func (w *Writer) Append(e Entry) error {
	if w.count > 0 && e.ID <= w.lastID {
		return fmt.Errorf("segment: append id %d after %d (must ascend)", e.ID, w.lastID)
	}
	if w.count%w.summaryEvery == 0 {
		w.summary = append(w.summary, summaryEntry{id: e.ID, off: uint64(w.off)})
	}
	w.buf = appendFrame(w.buf[:0], e)
	if _, err := w.f.Write(w.buf); err != nil {
		return err
	}
	w.off += int64(len(w.buf))
	w.lastID = e.ID
	w.count++
	w.ids = append(w.ids, e.ID)
	switch e.Kind {
	case EntryPut:
		w.puts++
	case EntryTombstone:
		w.tombstones++
	case EntryMeta:
		// metadata: indexed and bloomed like a put, counted as neither
	default:
		return fmt.Errorf("segment: append entry %d: unknown kind %d", e.ID, e.Kind)
	}
	return nil
}

// Count returns how many entries have been appended.
func (w *Writer) Count() int { return w.count }

// Bytes returns the bytes written so far (entry region only).
func (w *Writer) Bytes() int64 { return w.off }

// Abort discards the partially written file.
func (w *Writer) Abort() {
	w.f.Close()
	os.Remove(w.path)
}

// Finish writes the summary and bloom blocks and the footer, fsyncs, and
// reopens the completed file as a Segment.
func (w *Writer) Finish() (*Segment, error) {
	fail := func(err error) (*Segment, error) {
		w.Abort()
		return nil, err
	}
	bloom := NewBloom(len(w.ids), w.bitsPerKey)
	for _, id := range w.ids {
		bloom.Add(id)
	}
	summaryOff := uint64(w.off)
	meta := binary.LittleEndian.AppendUint32(nil, uint32(len(w.summary)))
	for _, s := range w.summary {
		meta = binary.LittleEndian.AppendUint64(meta, s.id)
		meta = binary.LittleEndian.AppendUint64(meta, s.off)
	}
	bloomOff := summaryOff + uint64(len(meta))
	meta = bloom.marshal(meta)

	footer := make([]byte, 0, segFooterSize)
	footer = binary.LittleEndian.AppendUint64(footer, summaryOff)
	footer = binary.LittleEndian.AppendUint64(footer, bloomOff)
	footer = binary.LittleEndian.AppendUint32(footer, uint32(w.count))
	footer = binary.LittleEndian.AppendUint32(footer, crc32.Checksum(meta, segCRC))
	footer = append(footer, segFooterMag...)

	if _, err := w.f.Write(meta); err != nil {
		return fail(err)
	}
	if _, err := w.f.Write(footer); err != nil {
		return fail(err)
	}
	if err := w.f.Sync(); err != nil {
		return fail(err)
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.path)
		return nil, err
	}
	seg, err := OpenSegment(w.path)
	if err != nil {
		os.Remove(w.path)
		return nil, err
	}
	seg.Puts, seg.Tombstones = w.puts, w.tombstones
	return seg, nil
}

// Segment is an opened, immutable segment file: summary and bloom
// resident; entries served by positioned reads. Safe for concurrent use.
type Segment struct {
	f      *os.File
	path   string
	id     uint64
	size   int64
	count  int
	sumOff int64 // end of the entry region
	sum    []summaryEntry
	bloom  *Bloom
	// Puts / Tombstones are entry-kind counts. They are exact when the
	// segment came from a Writer and are recomputed by Check; OpenSegment
	// alone leaves them zero (the manifest carries them across restarts).
	Puts, Tombstones int
}

// OpenSegment maps an existing segment file. The footer and meta region
// are fully validated (magic, offsets, CRC); entry frames are validated
// lazily on read.
func OpenSegment(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := newSegment(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func newSegment(f *os.File, path string) (*Segment, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < segHeaderSize {
		return nil, errTruncated("segment file")
	}
	hdr := make([]byte, segHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, err
	}
	if string(hdr[:8]) != segMagic {
		return nil, errCorrupt("bad header magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v < segVersion {
		return nil, fmt.Errorf("%w %d (this build reads %d)", ErrLegacyFormat, v, segVersion)
	} else if v != segVersion {
		return nil, errCorrupt("unsupported version %d", v)
	}
	segID := binary.LittleEndian.Uint64(hdr[12:])
	if size < segHeaderSize+segFooterSize {
		return nil, errTruncated("segment file")
	}

	footer := make([]byte, segFooterSize)
	if _, err := f.ReadAt(footer, size-segFooterSize); err != nil {
		return nil, err
	}
	if string(footer[24:32]) != segFooterMag {
		return nil, errCorrupt("bad footer magic")
	}
	summaryOff := binary.LittleEndian.Uint64(footer[0:])
	bloomOff := binary.LittleEndian.Uint64(footer[8:])
	count := binary.LittleEndian.Uint32(footer[16:])
	metaCRC := binary.LittleEndian.Uint32(footer[20:])
	metaEnd := uint64(size - segFooterSize)
	if summaryOff < segHeaderSize || summaryOff > bloomOff || bloomOff > metaEnd {
		return nil, errCorrupt("inconsistent section offsets")
	}
	meta := make([]byte, metaEnd-summaryOff)
	if _, err := f.ReadAt(meta, int64(summaryOff)); err != nil {
		return nil, err
	}
	if crc32.Checksum(meta, segCRC) != metaCRC {
		return nil, errCorrupt("meta region checksum mismatch")
	}
	if len(meta) < 4 {
		return nil, errTruncated("summary header")
	}
	nSum := int(binary.LittleEndian.Uint32(meta))
	rest := meta[4:]
	if nSum < 0 || nSum > len(rest)/16 {
		return nil, errCorrupt("summary count %d", nSum)
	}
	sum := make([]summaryEntry, nSum)
	for i := range sum {
		sum[i].id = binary.LittleEndian.Uint64(rest[16*i:])
		sum[i].off = binary.LittleEndian.Uint64(rest[16*i+8:])
		if sum[i].off < segHeaderSize || sum[i].off >= summaryOff {
			return nil, errCorrupt("summary offset %d out of entry region", sum[i].off)
		}
		if i > 0 && sum[i].id <= sum[i-1].id {
			return nil, errCorrupt("summary ids not ascending")
		}
	}
	rest = rest[16*nSum:]
	if uint64(summaryOff)+uint64(4+16*nSum) != bloomOff {
		return nil, errCorrupt("summary/bloom offset mismatch")
	}
	bloom, rest, err := unmarshalBloom(rest)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, errCorrupt("%d trailing meta bytes", len(rest))
	}
	return &Segment{
		f: f, path: path, id: segID, size: size, count: int(count),
		sumOff: int64(summaryOff), sum: sum, bloom: bloom,
	}, nil
}

// ID returns the segment's sequence number (allocation order = age order).
func (s *Segment) ID() uint64 { return s.id }

// Bytes returns the file size.
func (s *Segment) Bytes() int64 { return s.size }

// Count returns the entry count.
func (s *Segment) Count() int { return s.count }

// BloomBits returns the bloom filter size in bits.
func (s *Segment) BloomBits() int { return s.bloom.Bits() }

// MinID / MaxID return the id range ([0,0] for an empty segment).
func (s *Segment) MinID() uint64 {
	if len(s.sum) == 0 {
		return 0
	}
	return s.sum[0].id
}

// MaxID returns the largest id (scans the last summary stride).
func (s *Segment) MaxID() uint64 {
	var max uint64
	err := s.iterFrom(s.lastSummaryOff(), func(e Entry) error {
		max = e.ID
		return nil
	})
	if err != nil {
		return 0
	}
	return max
}

func (s *Segment) lastSummaryOff() int64 {
	if len(s.sum) == 0 {
		return segHeaderSize
	}
	return int64(s.sum[len(s.sum)-1].off)
}

// MayContain consults the bloom filter (no I/O).
func (s *Segment) MayContain(id uint64) bool { return s.bloom.MayContain(id) }

// readFrameAt reads and validates the frame starting at off, returning the
// entry and the next frame's offset. With a nil scratch the entry's payload
// is a fresh allocation; otherwise it aliases *scratch, which is grown to
// fit and overwritten by the next read through it.
func (s *Segment) readFrameAt(off int64, scratch *[]byte) (Entry, int64, error) {
	var lenBuf [4]byte
	if off < segHeaderSize || off+4 > s.sumOff {
		return Entry{}, 0, errCorrupt("frame offset %d out of entry region", off)
	}
	if _, err := s.f.ReadAt(lenBuf[:], off); err != nil {
		return Entry{}, 0, err
	}
	frameLen := int64(binary.LittleEndian.Uint32(lenBuf[:]))
	if frameLen < frameMin || off+4+frameLen+4 > s.sumOff {
		return Entry{}, 0, errCorrupt("frame length %d at offset %d", frameLen, off)
	}
	var body []byte
	if scratch == nil {
		body = make([]byte, frameLen+4)
	} else {
		if int64(cap(*scratch)) < frameLen+4 {
			*scratch = make([]byte, frameLen+4)
		}
		body = (*scratch)[:frameLen+4]
	}
	if _, err := s.f.ReadAt(body, off+4); err != nil {
		return Entry{}, 0, err
	}
	want := binary.LittleEndian.Uint32(body[frameLen:])
	if crc32.Checksum(body[:frameLen], segCRC) != want {
		return Entry{}, 0, errCorrupt("frame checksum mismatch at offset %d", off)
	}
	e, err := decodeFrameBody(body[:frameLen])
	if err != nil {
		return Entry{}, 0, err
	}
	return e, off + 4 + frameLen + 4, nil
}

// Get point-reads an entry by id. The bloom filter is NOT consulted here
// (the engine does that, so it can account lookups and false positives);
// a miss returns ok=false.
func (s *Segment) Get(id uint64) (Entry, bool, error) {
	// The frames walked over on the way to id share one buffer, private to
	// this call, so the entry returned is still safe to retain.
	var scratch []byte
	return s.get(id, &scratch)
}

// get is Get reading every frame through *scratch, which the returned
// entry's payload aliases.
func (s *Segment) get(id uint64, scratch *[]byte) (Entry, bool, error) {
	// Binary search the sparse summary for the last stride start ≤ id.
	i := sort.Search(len(s.sum), func(i int) bool { return s.sum[i].id > id }) - 1
	if i < 0 {
		return Entry{}, false, nil // id below the first entry
	}
	off := int64(s.sum[i].off)
	for off < s.sumOff {
		e, next, err := s.readFrameAt(off, scratch)
		if err != nil {
			return Entry{}, false, err
		}
		if e.ID == id {
			return e, true, nil
		}
		if e.ID > id {
			return Entry{}, false, nil
		}
		off = next
	}
	return Entry{}, false, nil
}

// Iter streams every entry in file order (ascending id). The entry's
// Payload is freshly allocated and safe to retain.
func (s *Segment) Iter(fn func(Entry) error) error {
	return s.iterFrom(segHeaderSize, fn)
}

func (s *Segment) iterFrom(off int64, fn func(Entry) error) error {
	for off < s.sumOff {
		e, next, err := s.readFrameAt(off, nil)
		if err != nil {
			return err
		}
		if err := fn(e); err != nil {
			return err
		}
		off = next
	}
	return nil
}

// Check runs a full structural scan: every frame CRC, strictly ascending
// ids, footer count, bloom completeness (every id must probe positive)
// and summary stride targets. It returns the problems found (empty =
// clean) and refreshes the Puts/Tombstones counters.
func (s *Segment) Check() []string {
	var problems []string
	addProblem := func(format string, a ...any) {
		problems = append(problems, fmt.Sprintf("segment %d: "+format, append([]any{s.id}, a...)...))
	}
	sumAt := make(map[int64]uint64, len(s.sum))
	for _, se := range s.sum {
		sumAt[int64(se.off)] = se.id
	}
	var n, puts, tombs int
	var lastID uint64
	var scratch []byte // no entry outlives its iteration
	off := int64(segHeaderSize)
	for off < s.sumOff {
		e, next, err := s.readFrameAt(off, &scratch)
		if err != nil {
			addProblem("entry scan at offset %d: %v", off, err)
			return problems
		}
		if n > 0 && e.ID <= lastID {
			addProblem("ids not ascending at offset %d (%d after %d)", off, e.ID, lastID)
		}
		if want, ok := sumAt[off]; ok {
			if want != e.ID {
				addProblem("summary points offset %d at id %d, found %d", off, want, e.ID)
			}
			delete(sumAt, off)
		}
		if !s.bloom.MayContain(e.ID) {
			addProblem("bloom misses present id %d", e.ID)
		}
		switch e.Kind {
		case EntryPut:
			puts++
		case EntryTombstone:
			tombs++
		case EntryMeta:
			// metadata entries carry no invariants beyond the frame CRC
		default:
			addProblem("entry %d has unknown kind %d", e.ID, e.Kind)
		}
		lastID = e.ID
		n++
		off = next
	}
	if n != s.count {
		addProblem("footer count %d but %d entries", s.count, n)
	}
	for o, id := range sumAt {
		addProblem("summary id %d points at offset %d with no entry", id, o)
	}
	s.Puts, s.Tombstones = puts, tombs
	return problems
}

// Close releases the file handle.
func (s *Segment) Close() error { return s.f.Close() }

// Path returns the segment's file path.
func (s *Segment) Path() string { return s.path }
