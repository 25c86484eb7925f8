package segment

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

func testEntry(id uint64, payload string) Entry {
	return Entry{ID: id, Kind: EntryPut, Payload: []byte(payload)}
}

func writeTestSegment(t *testing.T, dir string, segID uint64, ents []Entry) *Segment {
	t.Helper()
	w, err := NewWriter(filepath.Join(dir, segmentFileName(segID)), segID, 4, 10)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, e := range ents {
		if err := w.Append(e); err != nil {
			t.Fatalf("Append(%d): %v", e.ID, err)
		}
	}
	seg, err := w.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return seg
}

func TestSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var ents []Entry
	for i := 0; i < 500; i++ {
		id := uint64(i*3 + 1)
		ents = append(ents, testEntry(id, fmt.Sprintf("payload-%d", id)))
	}
	seg := writeTestSegment(t, dir, 1, ents)
	defer seg.Close()

	if seg.Count() != len(ents) {
		t.Fatalf("count = %d, want %d", seg.Count(), len(ents))
	}
	if seg.MinID() != 1 || seg.MaxID() != uint64(499*3+1) {
		t.Fatalf("id range [%d,%d]", seg.MinID(), seg.MaxID())
	}
	for _, want := range ents {
		got, ok, err := seg.Get(want.ID)
		if err != nil || !ok {
			t.Fatalf("Get(%d): ok=%v err=%v", want.ID, ok, err)
		}
		if string(got.Payload) != string(want.Payload) {
			t.Fatalf("Get(%d) payload %q, want %q", want.ID, got.Payload, want.Payload)
		}
	}
	// Absent ids (between present ones and outside the range) miss cleanly.
	for _, id := range []uint64{0, 2, 3, 5, 1000000} {
		if _, ok, err := seg.Get(id); ok || err != nil {
			t.Fatalf("Get(absent %d): ok=%v err=%v", id, ok, err)
		}
	}
	// Iter yields everything in order.
	var seen []uint64
	if err := seg.Iter(func(e Entry) error { seen = append(seen, e.ID); return nil }); err != nil {
		t.Fatalf("Iter: %v", err)
	}
	if len(seen) != len(ents) || !sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i] < seen[j] }) {
		t.Fatalf("Iter saw %d ids, sorted=%v", len(seen), sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i] < seen[j] }))
	}
	if problems := seg.Check(); len(problems) != 0 {
		t.Fatalf("Check: %v", problems)
	}
	// Reopen from disk and spot-check.
	seg2, err := OpenSegment(seg.Path())
	if err != nil {
		t.Fatalf("OpenSegment: %v", err)
	}
	defer seg2.Close()
	if got, ok, _ := seg2.Get(ents[250].ID); !ok || string(got.Payload) != string(ents[250].Payload) {
		t.Fatalf("reopened Get mismatch")
	}
}

func TestWriterRejectsOutOfOrder(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(filepath.Join(dir, "x.seg"), 1, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.Append(testEntry(5, "a")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testEntry(5, "b")); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := w.Append(testEntry(4, "c")); err == nil {
		t.Fatal("descending id accepted")
	}
}

func TestSegmentCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	var ents []Entry
	for i := 1; i <= 64; i++ {
		ents = append(ents, testEntry(uint64(i), "some payload bytes"))
	}
	seg := writeTestSegment(t, dir, 1, ents)
	path := seg.Path()
	seg.Close()

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the entry region: OpenSegment still
	// succeeds (entries are validated lazily) but Check must catch it.
	mut := append([]byte(nil), buf...)
	mut[segHeaderSize+40] ^= 0xff
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	seg2, err := OpenSegment(path)
	if err == nil {
		if problems := seg2.Check(); len(problems) == 0 {
			t.Fatal("Check missed a corrupted entry frame")
		}
		seg2.Close()
	} else if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unexpected open error: %v", err)
	}
	// Corrupt the meta region: OpenSegment must refuse.
	mut = append([]byte(nil), buf...)
	mut[len(mut)-segFooterSize-3] ^= 0xff
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegment(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("meta corruption not detected: %v", err)
	}
	// Truncation must refuse too.
	if err := os.WriteFile(path, buf[:len(buf)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegment(path); err == nil {
		t.Fatal("truncated segment opened")
	}
}

// TestBloomFalsePositiveRate checks the filter stays within a small
// multiple of the theoretical rate for the default 10 bits/key (~1%).
func TestBloomFalsePositiveRate(t *testing.T) {
	const n = 10000
	b := NewBloom(n, 10)
	for i := 0; i < n; i++ {
		b.Add(uint64(i))
	}
	for i := 0; i < n; i++ {
		if !b.MayContain(uint64(i)) {
			t.Fatalf("false negative for %d", i)
		}
	}
	fp := 0
	const probes = 100000
	for i := 0; i < probes; i++ {
		if b.MayContain(uint64(n + i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.025 { // 10 bits/key targets ≈1%; allow 2.5% headroom
		t.Fatalf("false positive rate %.4f exceeds bound", rate)
	}
}

func TestManifestRoundTripAndSwap(t *testing.T) {
	dir := t.TempDir()
	m, err := ReadManifest(dir)
	if err != nil || m.NextID != 1 || len(m.Segments) != 0 {
		t.Fatalf("fresh manifest: %+v err=%v", m, err)
	}
	want := &Manifest{Gen: 7, NextID: 42, Segments: []SegmentInfo{
		{ID: 3, File: "00000003.seg", MinID: 1, MaxID: 9, Entries: 5, Bytes: 1234, BloomBits: 256},
	}}
	if err := writeManifest(dir, want, nil); err != nil {
		t.Fatalf("writeManifest: %v", err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if got.Gen != 7 || got.NextID != 42 || len(got.Segments) != 1 || got.Segments[0] != want.Segments[0] {
		t.Fatalf("round trip: %+v", got)
	}
	// Corrupt manifest refuses to load.
	path := filepath.Join(dir, manifestName)
	buf, _ := os.ReadFile(path)
	buf[len(buf)/2] ^= 0x01
	os.WriteFile(path, buf, 0o644)
	if _, err := ReadManifest(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt manifest accepted: %v", err)
	}
}

func newTestEngine(t *testing.T, dir string, opts Options) *Engine {
	t.Helper()
	e, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return e
}

func TestEngineMemtableAndSeal(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, dir, Options{TargetBytes: -1})
	defer e.Close()

	for i := 1; i <= 100; i++ {
		if err := e.Put(testEntry(uint64(i), fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Delete(50); err != nil {
		t.Fatal(err)
	}
	// Memtable reads.
	if got, ok, _ := e.Get(7); !ok || string(got.Payload) != "v7" {
		t.Fatalf("memtable Get(7): %v %q", ok, got.Payload)
	}
	if _, ok, _ := e.Get(50); ok {
		t.Fatal("deleted id visible")
	}
	if err := e.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	// Segment reads after seal.
	if got, ok, _ := e.Get(7); !ok || string(got.Payload) != "v7" {
		t.Fatalf("segment Get(7): %v %q", ok, got.Payload)
	}
	if _, ok, _ := e.Get(50); ok {
		t.Fatal("tombstone lost by seal")
	}
	// Overwrite in a later segment: newest wins.
	if err := e.Put(testEntry(7, "v7-new")); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := e.Get(7); !ok || string(got.Payload) != "v7-new" {
		t.Fatalf("newest-wins Get(7): %v %q", ok, got.Payload)
	}
	st := e.Stats()
	if st.Segments != 2 || st.Seals != 2 {
		t.Fatalf("stats: %+v", st)
	}
	// Scan sees exactly the live set.
	live := map[uint64]string{}
	if err := e.Scan(func(ent Entry) error { live[ent.ID] = string(ent.Payload); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(live) != 99 || live[7] != "v7-new" || live[50] != "" {
		t.Fatalf("scan: %d entries, live[7]=%q", len(live), live[7])
	}
	// Empty seal is a no-op.
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Segments != 2 {
		t.Fatal("empty seal created a segment")
	}
}

// TestEngineView pins View to Get: the same newest-wins answer from the
// memtable and from sealed segments, nothing for an absent or deleted id,
// through a buffer that the next call reuses. The sealed segment spans
// several summaryEvery strides, so lookups land between sparse-index points.
func TestEngineView(t *testing.T) {
	e := newTestEngine(t, t.TempDir(), Options{TargetBytes: -1})
	defer e.Close()
	const n = 3*summaryEvery + 5
	for i := 1; i <= n; i++ {
		e.Put(testEntry(uint64(i), fmt.Sprintf("sealed-%d", i)))
	}
	e.Delete(4)
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	e.Put(testEntry(7, "memtable-7"))
	for id := uint64(0); id <= n+1; id++ {
		want, wantOK, err := e.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		var got string
		ok, err := e.View(id, func(ent Entry) error {
			got = string(ent.Payload)
			return nil
		})
		if err != nil || ok != wantOK || got != string(want.Payload) {
			t.Fatalf("View(%d) = %q ok=%v err=%v, Get says %q ok=%v", id, got, ok, err, want.Payload, wantOK)
		}
	}
	boom := errors.New("boom")
	if _, err := e.View(1, func(Entry) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("View did not return fn's error: %v", err)
	}
}

func TestEngineReopen(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, dir, Options{TargetBytes: -1})
	for i := 1; i <= 40; i++ {
		e.Put(testEntry(uint64(i), fmt.Sprintf("v%d", i)))
		if i%10 == 0 {
			if err := e.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.Delete(11)
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Drop an orphan file; reopen must remove it and serve the same data.
	orphan := filepath.Join(dir, segmentFileName(999))
	os.WriteFile(orphan, []byte("garbage"), 0o644)
	e2 := newTestEngine(t, dir, Options{TargetBytes: -1})
	defer e2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan survived reopen")
	}
	for i := 1; i <= 40; i++ {
		got, ok, err := e2.Get(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 11 {
			if ok {
				t.Fatal("tombstone lost across reopen")
			}
			continue
		}
		if !ok || string(got.Payload) != fmt.Sprintf("v%d", i) {
			t.Fatalf("reopen Get(%d): %v %q", i, ok, got.Payload)
		}
	}
	res, err := e2.Check()
	if err != nil || !res.Ok() {
		t.Fatalf("Check: %+v err=%v", res, err)
	}
}

func TestEngineCompaction(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, dir, Options{TargetBytes: -1})
	defer e.Close()

	// Six same-tier seals: one run of at least fanIn.
	rng := rand.New(rand.NewSource(42))
	truth := map[uint64]string{}
	for round := 0; round < 6; round++ {
		for i := 0; i < 50; i++ {
			id := uint64(rng.Intn(120) + 1)
			if rng.Intn(10) == 0 {
				delete(truth, id)
				e.Delete(id)
			} else {
				v := fmt.Sprintf("r%d-%d", round, id)
				truth[id] = v
				e.Put(testEntry(id, v))
			}
		}
		if err := e.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Stats().Segments
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := e.Stats()
	if st.Segments >= before {
		t.Fatalf("compaction did not shrink the stack: %d -> %d", before, st.Segments)
	}
	if st.Compactions == 0 {
		t.Fatal("no compactions counted")
	}
	// Every id answers per the truth table.
	for id := uint64(1); id <= 120; id++ {
		got, ok, err := e.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		want, live := truth[id]
		if ok != live || (ok && string(got.Payload) != want) {
			t.Fatalf("post-compaction Get(%d): ok=%v want live=%v %q got %q", id, ok, live, want, got.Payload)
		}
	}
	// Full-stack compaction with the oldest segment included dropped the
	// tombstones.
	res, err := e.Check()
	if err != nil || !res.Ok() {
		t.Fatalf("Check: %+v err=%v", res, err)
	}
	man := e.Manifest()
	for _, row := range man.Segments {
		if row.ID == man.Segments[0].ID && row.Tombstones != 0 && len(man.Segments) == 1 {
			t.Fatalf("oldest-inclusive merge kept tombstones: %+v", row)
		}
	}
	// Reopen and re-verify: the manifest swap persisted the merged state.
	e.Close()
	e2 := newTestEngine(t, dir, Options{TargetBytes: -1})
	defer e2.Close()
	for id, want := range truth {
		got, ok, err := e2.Get(id)
		if err != nil || !ok || string(got.Payload) != want {
			t.Fatalf("reopen-after-compaction Get(%d): ok=%v err=%v", id, ok, err)
		}
	}
}

// TestCheckCleanAfterMidStackCompaction is the regression for the "segment
// order violation" a healthy store used to report: a merged run's output
// carries the newest segment id but stands where the run stood, so ids stop
// ascending along the stack as soon as the run is not the stack's suffix.
// The fanIn small seals between two big ones are that run.
func TestCheckCleanAfterMidStackCompaction(t *testing.T) {
	e := newTestEngine(t, t.TempDir(), Options{TargetBytes: -1})
	defer e.Close()
	big := strings.Repeat("x", 100<<10) // one size tier above the small seals
	id := uint64(0)
	for _, payload := range []string{big, "small", "small", "small", big} {
		id++
		e.Put(testEntry(id, payload))
		if err := e.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	var ids []uint64
	for _, row := range e.Manifest().Segments {
		ids = append(ids, row.ID)
	}
	if len(ids) != 3 || ids[1] < ids[2] {
		t.Fatalf("stack ids %v: want the mid-stack run merged into a segment newer than its successor", ids)
	}
	res, err := e.Check()
	if err != nil || !res.Ok() {
		t.Fatalf("Check after mid-stack compaction: %+v err=%v", res, err)
	}
}

// TestVersion1HeaderRefused hand-builds the 24-byte header of the previous
// format: the opener must name it legacy from the version field alone, not
// misread its frames.
func TestVersion1HeaderRefused(t *testing.T) {
	hdr := append([]byte(segMagic), 1, 0, 0, 0) // version u32 = 1
	hdr = append(hdr, make([]byte, segHeaderSize-len(hdr))...)
	path := filepath.Join(t.TempDir(), segmentFileName(1))
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegment(path); !errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("OpenSegment(v1 header) = %v, want ErrLegacyFormat", err)
	}
}

func TestEngineBackgroundSeal(t *testing.T) {
	dir := t.TempDir()
	// The size trigger wakes the sealer at once; background compaction may
	// merge the seals meanwhile, and every id must stay readable through it.
	e := newTestEngine(t, dir, Options{TargetBytes: 2 << 10, Background: true})
	defer e.Close()
	payload := make([]byte, 256)
	for i := 1; i <= 64; i++ {
		if err := e.Put(Entry{ID: uint64(i), Kind: EntryPut, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Seals == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background sealer never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Everything stays readable throughout.
	for i := 1; i <= 64; i++ {
		if _, ok, err := e.Get(uint64(i)); !ok || err != nil {
			t.Fatalf("Get(%d) after background seal: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestEngineRateLimitedCompaction(t *testing.T) {
	dir := t.TempDir()
	// Three same-tier seals of ≈82 KiB each: a fanIn run whose merge
	// writes more than the limiter's one-second burst.
	e := newTestEngine(t, dir, Options{TargetBytes: -1, RateBytesPerSec: 64 << 10})
	defer e.Close()
	payload := make([]byte, 2048)
	id := uint64(1)
	for round := 0; round < 3; round++ {
		for i := 0; i < 40; i++ {
			e.Put(Entry{ID: id, Kind: EntryPut, Payload: payload})
			id++
		}
		if err := e.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.RateLimitStalls == 0 || st.RateLimitStallNanos == 0 {
		t.Fatalf("rate limiter never stalled: %+v", st)
	}
}

// TestEngineCompactionPressureValve alternates size tiers so that no run
// reaches fanIn: only the maxSegments valve may merge, and it must bring
// the stack back to maxSegments without losing an entry.
func TestEngineCompactionPressureValve(t *testing.T) {
	e := newTestEngine(t, t.TempDir(), Options{TargetBytes: -1})
	defer e.Close()
	big := strings.Repeat("x", 100<<10) // one size tier above the small seals
	n := maxSegments + 1
	for i := 1; i <= n; i++ {
		payload := "small"
		if i%2 == 1 {
			payload = big
		}
		e.Put(testEntry(uint64(i), payload))
		if err := e.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.Segments != n || st.CompactionBacklog != 1 {
		t.Fatalf("before Compact: %d segments, backlog %d; want %d and 1", st.Segments, st.CompactionBacklog, n)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Segments != maxSegments || st.Compactions != 1 {
		t.Fatalf("after Compact: %d segments, %d compactions; want %d and 1", st.Segments, st.Compactions, maxSegments)
	}
	for i := 1; i <= n; i++ {
		if _, ok, err := e.Get(uint64(i)); !ok || err != nil {
			t.Fatalf("Get(%d) after the valve merge: ok=%v err=%v", i, ok, err)
		}
	}
	if res, err := e.Check(); err != nil || !res.Ok() {
		t.Fatalf("Check: %+v err=%v", res, err)
	}
}

// TestEngineBloomFalsePositiveFallsThrough reads every id of an old segment
// through a newer one whose bloom filter answers "maybe" for some of them:
// such a probe must count a false positive and go on to the older segment.
func TestEngineBloomFalsePositiveFallsThrough(t *testing.T) {
	e := newTestEngine(t, t.TempDir(), Options{TargetBytes: -1})
	defer e.Close()
	const n = 2000 // ≈1% of n probes are false positives at bloomBitsPerKey
	for _, base := range []uint64{0, n} {
		for i := uint64(1); i <= n; i++ {
			e.Put(testEntry(base+i, fmt.Sprintf("v%d", base+i)))
		}
		if err := e.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= n; i++ {
		got, ok, err := e.Get(i)
		if err != nil || !ok || string(got.Payload) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%d) = %q ok=%v err=%v", i, got.Payload, ok, err)
		}
	}
	if st := e.Stats(); st.BloomFalsePositives == 0 {
		t.Fatalf("no bloom false positive in %d probes of the newer segment: %+v", n, st)
	}
}
