package segment

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSegmentDecode feeds arbitrary bytes to the segment opener and, when
// a file somehow opens, to the full structural scan and point reads. The
// decoder must never panic and never loop: every outcome is either a
// clean parse or an error.
func FuzzSegmentDecode(f *testing.F) {
	// Seed with a real segment file so the fuzzer starts from valid
	// structure, plus a few degenerate shapes.
	dir := f.TempDir()
	w, err := NewWriter(filepath.Join(dir, "seed.seg"), 1, 2, 10)
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(1); i <= 9; i++ {
		if err := w.Append(Entry{ID: i, Kind: EntryPut, Payload: []byte("pay")}); err != nil {
			f.Fatal(err)
		}
	}
	seg, err := w.Finish()
	if err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(seg.Path())
	seg.Close()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add(bytes.Repeat([]byte{0}, segHeaderSize+segFooterSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		s, err := OpenSegment(path)
		if err != nil {
			return // rejected: fine, as long as we did not panic
		}
		defer s.Close()
		// A file that opens must survive every read path without panicking.
		s.Check()
		s.MinID()
		s.MaxID()
		for id := uint64(0); id < 16; id++ {
			s.Get(id)
			s.MayContain(id)
		}
		s.Iter(func(Entry) error { return nil })
	})
}

// FuzzFrameRoundTrip checks encode/decode identity for single entry
// frames: whatever appendFrame writes, decodeFrameBody must read back
// exactly.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint64(1), byte(EntryPut), []byte("payload"))
	f.Add(uint64(0), byte(EntryTombstone), []byte{})
	f.Add(^uint64(0), byte(EntryMeta), bytes.Repeat([]byte{0xab}, 300))
	f.Fuzz(func(t *testing.T, id uint64, kind byte, payload []byte) {
		in := Entry{ID: id, Kind: EntryKind(kind), Payload: payload}
		buf := appendFrame(nil, in)
		frameLen := int(binary.LittleEndian.Uint32(buf))
		if frameLen != frameMin+len(payload) || len(buf) != 4+frameLen+4 {
			t.Fatalf("frame of %d payload bytes: frameLen %d, %d bytes", len(payload), frameLen, len(buf))
		}
		out, err := decodeFrameBody(buf[4 : 4+frameLen])
		if err != nil {
			t.Fatalf("decodeFrameBody: %v", err)
		}
		if out.ID != in.ID || out.Kind != in.Kind || !bytes.Equal(out.Payload, in.Payload) {
			t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
		}
	})
}
