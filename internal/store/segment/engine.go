package segment

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed reports an operation on a closed engine.
var ErrClosed = errors.New("segment: engine closed")

// Options tunes an Engine. The zero value gets sensible defaults.
type Options struct {
	// TargetBytes rolls the memtable into a sealed segment once it holds
	// this many bytes (0 means 4 MiB; negative disables size-triggered
	// seals). Only the background sealer reads it: without Background the
	// memtable seals at Seal/Compact whatever its size.
	TargetBytes int64
	// RateBytesPerSec caps compaction write throughput; the merge loop
	// sleeps when it gets ahead of the budget (0 means unlimited).
	RateBytesPerSec int64
	// Background runs the sealer/compactor goroutine; without it seals
	// happen only via Seal/Compact (tests want the determinism, servers
	// want the goroutine).
	Background bool
	// FailPoint, when non-nil, is invoked at named points inside the
	// seal/compaction/manifest protocols; returning an error simulates a
	// crash there (the engine fails sticky, files are left as a kill -9
	// would leave them). Test seam.
	FailPoint func(name string) error
}

// The engine's fixed shape. A segment's summary and bloom filter describe
// themselves, so the first two choose only what new segments get.
const (
	// bloomBitsPerKey sizes each segment's bloom filter (≈1% false
	// positives).
	bloomBitsPerKey = 10
	// summaryEvery is the sparse index stride.
	summaryEvery = 16
	// fanIn is the minimum same-tier run length that triggers a tiered
	// merge.
	fanIn = 3
	// maxSegments is the compaction pressure valve: above this many live
	// segments the oldest run is merged even without a same-size tier.
	maxSegments = 8
	// compactEvery is the background maintenance period.
	compactEvery = time.Second
)

func (o Options) withDefaults() Options {
	if o.TargetBytes == 0 {
		o.TargetBytes = 4 << 20
	}
	return o
}

// EngineStats snapshots the engine's shape and activity counters.
type EngineStats struct {
	Segments            int    `json:"segments"`
	Gen                 uint64 `json:"gen"`
	MemtableEntries     int    `json:"memtable_entries"`
	MemtableBytes       int64  `json:"memtable_bytes"`
	SealingEntries      int    `json:"sealing_entries"`
	LiveBytes           int64  `json:"live_bytes"`
	DeadBytesEstimate   int64  `json:"dead_bytes_estimate"`
	CompactionBacklog   int    `json:"compaction_backlog"`
	Seals               int64  `json:"seals"`
	Compactions         int64  `json:"compactions"`
	BloomLookups        int64  `json:"bloom_lookups"`
	BloomFalsePositives int64  `json:"bloom_false_positives"`
	RateLimitStalls     int64  `json:"rate_limit_stalls"`
	RateLimitStallNanos int64  `json:"rate_limit_stall_nanos"`
}

// CheckResult is the engine-wide integrity scan outcome.
type CheckResult struct {
	Segments int      `json:"segments"`
	Entries  int      `json:"entries"`
	Bytes    int64    `json:"bytes"`
	Problems []string `json:"problems,omitempty"`
}

// Ok reports whether the scan found no problems.
func (r CheckResult) Ok() bool { return len(r.Problems) == 0 }

// Engine is the segmented store: an active memtable, at most one frozen
// memtable mid-seal, and a stack of immutable segments under a manifest.
// All methods are safe for concurrent use.
//
// Lock order: ioMu before mu, never the reverse. ioMu serializes every
// operation that writes files or swaps the manifest (seal, compaction);
// mu guards the in-memory shape and is held only briefly.
type Engine struct {
	dir  string
	opts Options

	// ioMu serializes seal/compaction/manifest swaps.
	ioMu sync.Mutex

	mu          sync.RWMutex
	active      map[uint64]Entry // guarded by mu
	activeBytes int64            // guarded by mu
	frozen      map[uint64]Entry // guarded by mu; non-nil only mid-seal
	segments    []*Segment       // guarded by mu; oldest first
	retired     []*Segment       // guarded by mu; unlinked by compaction, closed at Close
	deadCount   map[uint64]int   // guarded by mu; per-segment shadowed-entry estimate
	gen         uint64           // guarded by mu
	nextID      uint64           // guarded by mu
	failed      error            // guarded by mu; sticky injected/IO failure
	closed      bool             // guarded by mu

	seals, compactions atomic.Int64
	bloomLookups       atomic.Int64
	bloomFPs           atomic.Int64
	rateStalls         atomic.Int64
	rateStallNanos     atomic.Int64

	sealCh, stopCh    chan struct{}
	wg                sync.WaitGroup
	backgroundRunning bool // set once in Open, read-only afterwards
}

// Open opens (or creates) a segment engine rooted at dir: read the
// manifest, open every live segment, delete orphans from interrupted
// seals/compactions, and start the background maintenance goroutine when
// configured.
func Open(dir string, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	e := &Engine{dir: dir, opts: opts}
	live, err := e.loadManifest(man)
	if err != nil {
		return nil, err
	}
	if err := removeOrphans(dir, live); err != nil {
		e.Close()
		return nil, err
	}
	e.updateShapeGauges()
	if opts.Background {
		e.backgroundRunning = true
		e.sealCh = make(chan struct{}, 1)
		e.stopCh = make(chan struct{})
		e.wg.Add(1)
		go e.background()
	}
	return e, nil
}

// loadManifest initializes the in-memory shape from a decoded manifest,
// opening every listed segment. Returns the set of live file names.
func (e *Engine) loadManifest(man *Manifest) (map[string]bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.active = make(map[uint64]Entry)
	e.deadCount = make(map[uint64]int)
	e.gen = man.Gen
	e.nextID = man.NextID
	if e.nextID == 0 {
		e.nextID = 1
	}
	live := make(map[string]bool, len(man.Segments))
	for _, info := range man.Segments {
		seg, err := OpenSegment(filepath.Join(e.dir, info.File))
		if err != nil {
			e.closeAllLocked()
			return nil, fmt.Errorf("segment: open %s: %w", info.File, err)
		}
		seg.Puts, seg.Tombstones = info.Puts, info.Tombstones
		e.segments = append(e.segments, seg)
		live[info.File] = true
		if seg.ID() >= e.nextID {
			e.nextID = seg.ID() + 1
		}
	}
	return live, nil
}

// removeOrphans deletes *.seg files the manifest does not reference and a
// leftover MANIFEST.tmp — debris of a seal or compaction that died before
// its swap committed.
func removeOrphans(dir string, live map[string]bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, de := range entries {
		name := de.Name()
		if name == manifestTmpName || (strings.HasSuffix(name, ".seg") && !live[name]) {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// usableLocked reports the sticky failure state; caller holds mu.
func (e *Engine) usableLocked() error {
	if e.closed {
		return ErrClosed
	}
	if e.failed != nil {
		return fmt.Errorf("segment: engine failed: %w", e.failed)
	}
	return nil
}

// fail records the first failure sticky, so everything after a simulated
// crash behaves like the process is gone.
func (e *Engine) fail(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.failed == nil {
		e.failed = err
	}
}

// failpoint consults the injection hook; an injected error marks the
// engine failed before propagating.
func (e *Engine) failpoint(name string) error {
	if e.opts.FailPoint == nil {
		return nil
	}
	if err := e.opts.FailPoint(name); err != nil {
		e.fail(err)
		return err
	}
	return nil
}

// entryBytes is the memtable accounting size of an entry.
func entryBytes(e Entry) int64 {
	return int64(32 + len(e.Payload))
}

// Put stages an entry in the memtable (newest-wins per id). The engine
// takes ownership of the payload slice. Crossing the size threshold nudges
// the background sealer; without a background goroutine the memtable
// simply grows until Seal.
func (e *Engine) Put(ent Entry) error {
	if ent.Kind != EntryPut && ent.Kind != EntryTombstone && ent.Kind != EntryMeta {
		return fmt.Errorf("segment: put entry %d: unknown kind %d", ent.ID, ent.Kind)
	}
	needSeal, err := e.putMem(ent)
	if err != nil {
		return err
	}
	if needSeal {
		e.triggerSeal()
	}
	return nil
}

func (e *Engine) putMem(ent Entry) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.usableLocked(); err != nil {
		return false, err
	}
	if old, ok := e.active[ent.ID]; ok {
		e.activeBytes -= entryBytes(old)
	}
	e.active[ent.ID] = ent
	e.activeBytes += entryBytes(ent)
	return e.opts.TargetBytes > 0 && e.activeBytes >= e.opts.TargetBytes, nil
}

// Delete stages a tombstone for the id.
func (e *Engine) Delete(id uint64) error {
	return e.Put(Entry{ID: id, Kind: EntryTombstone})
}

// triggerSeal nudges the background sealer (no-op without one).
func (e *Engine) triggerSeal() {
	if !e.backgroundRunning {
		return
	}
	select {
	case e.sealCh <- struct{}{}:
	default:
	}
}

// memGet resolves an id against the memtables. done=true means the answer
// is final (found, or found a tombstone); otherwise segs is the segment
// stack snapshot to search newest-first.
func (e *Engine) memGet(id uint64) (ent Entry, ok, done bool, segs []*Segment, err error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if uerr := e.usableLocked(); uerr != nil {
		return Entry{}, false, true, nil, uerr
	}
	if m, hit := e.active[id]; hit {
		return m, m.Kind != EntryTombstone, true, nil, nil
	}
	if e.frozen != nil {
		if m, hit := e.frozen[id]; hit {
			return m, m.Kind != EntryTombstone, true, nil, nil
		}
	}
	return Entry{}, false, false, append([]*Segment(nil), e.segments...), nil
}

// Get returns the newest live version of an id (ok=false when absent or
// tombstoned). Segment probes go through each segment's bloom filter, so
// cold misses cost zero I/O.
func (e *Engine) Get(id uint64) (Entry, bool, error) {
	var scratch []byte
	return e.get(id, &scratch)
}

// framePool recycles View's read buffers.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// View calls fn with the newest live version of an id and reports whether
// there was one. Unlike Get's, the entry's payload is valid only until fn
// returns: segment frames are read through a pooled buffer, so a caller
// that decodes the payload and drops it (a raster read) allocates nothing
// here.
func (e *Engine) View(id uint64, fn func(Entry) error) (bool, error) {
	scratch := framePool.Get().(*[]byte)
	defer framePool.Put(scratch)
	ent, ok, err := e.get(id, scratch)
	if err != nil || !ok {
		return false, err
	}
	return true, fn(ent)
}

// get is Get reading segment frames through *scratch, which the returned
// entry's payload may alias.
func (e *Engine) get(id uint64, scratch *[]byte) (Entry, bool, error) {
	ent, ok, done, segs, err := e.memGet(id)
	if done || err != nil {
		return ent, ok, err
	}
	for i := len(segs) - 1; i >= 0; i-- {
		s := segs[i]
		e.bloomLookups.Add(1)
		mBloomLookups.Inc()
		if !s.MayContain(id) {
			continue
		}
		sent, hit, err := s.get(id, scratch)
		if err != nil {
			return Entry{}, false, err
		}
		if !hit {
			e.bloomFPs.Add(1)
			mBloomFP.Inc()
			continue
		}
		return sent, sent.Kind != EntryTombstone, nil
	}
	return Entry{}, false, nil
}

// Scan streams every live entry (puts and metadata; tombstoned ids are
// suppressed) in unspecified order: memtables first, then segments newest
// to oldest, with newest-wins dedup. Entry payloads from segments are
// fresh allocations; memtable payloads are the stored slices — callers
// must not mutate either.
func (e *Engine) Scan(fn func(Entry) error) error {
	mem, segs, err := e.scanSnapshot()
	if err != nil {
		return err
	}
	seen := make(map[uint64]struct{}, len(mem))
	for _, ent := range mem {
		seen[ent.ID] = struct{}{}
		if ent.Kind == EntryTombstone {
			continue
		}
		if err := fn(ent); err != nil {
			return err
		}
	}
	for i := len(segs) - 1; i >= 0; i-- {
		err := segs[i].Iter(func(ent Entry) error {
			if _, dup := seen[ent.ID]; dup {
				return nil
			}
			seen[ent.ID] = struct{}{}
			if ent.Kind == EntryTombstone {
				return nil
			}
			return fn(ent)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// scanSnapshot captures the memtable contents (active winning over
// frozen) and the segment stack.
func (e *Engine) scanSnapshot() ([]Entry, []*Segment, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := e.usableLocked(); err != nil {
		return nil, nil, err
	}
	mem := make([]Entry, 0, len(e.active)+len(e.frozen))
	for _, ent := range e.active {
		mem = append(mem, ent)
	}
	for id, ent := range e.frozen {
		if _, shadowed := e.active[id]; !shadowed {
			mem = append(mem, ent)
		}
	}
	return mem, append([]*Segment(nil), e.segments...), nil
}

// Seal synchronously rolls the memtable into a new sealed segment and
// swaps the manifest. After Seal returns, everything previously staged is
// durable in the segment set — the precondition for advancing the WAL
// checkpoint floor. An empty memtable is a no-op.
func (e *Engine) Seal() error {
	e.ioMu.Lock()
	defer e.ioMu.Unlock()
	return e.sealIOLocked()
}

// sealIOLocked does one seal; caller holds ioMu.
func (e *Engine) sealIOLocked() error {
	ents, segID, rows, gen, empty, err := e.freezeForSeal()
	if err != nil || empty {
		return err
	}
	if err := e.failpoint("seal.start"); err != nil {
		return err
	}
	path := filepath.Join(e.dir, segmentFileName(segID))
	w, err := NewWriter(path, segID, summaryEvery, bloomBitsPerKey)
	if err != nil {
		e.fail(err)
		return err
	}
	for _, ent := range ents {
		if err := w.Append(ent); err != nil {
			w.Abort()
			e.fail(err)
			return err
		}
	}
	seg, err := w.Finish()
	if err != nil {
		e.fail(err)
		return err
	}
	if err := e.failpoint("seal.segment-written"); err != nil {
		seg.Close()
		return err
	}
	rows = append(rows, segInfo(seg))
	if err := e.failpoint("seal.before-manifest"); err != nil {
		seg.Close()
		return err
	}
	man := &Manifest{Gen: gen + 1, NextID: segID + 1, Segments: rows}
	if err := writeManifest(e.dir, man, e.failpoint); err != nil {
		e.fail(err)
		seg.Close()
		return err
	}
	e.installSealed(seg, gen+1)
	e.seals.Add(1)
	mSeals.Inc()
	if err := e.failpoint("seal.after-manifest"); err != nil {
		return err
	}
	e.updateShapeGauges()
	return nil
}

// freezeForSeal promotes the active memtable to frozen (if nothing is
// frozen yet) and snapshots what the seal needs. empty=true means nothing
// to seal.
func (e *Engine) freezeForSeal() (ents []Entry, segID uint64, rows []SegmentInfo, gen uint64, empty bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if uerr := e.usableLocked(); uerr != nil {
		return nil, 0, nil, 0, false, uerr
	}
	if e.frozen == nil {
		if len(e.active) == 0 {
			return nil, 0, nil, 0, true, nil
		}
		e.frozen = e.active
		e.active = make(map[uint64]Entry)
		e.activeBytes = 0
	}
	ents = make([]Entry, 0, len(e.frozen))
	for _, ent := range e.frozen {
		ents = append(ents, ent)
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].ID < ents[j].ID })
	segID = e.nextID
	e.nextID++
	return ents, segID, e.manifestRowsLocked(), e.gen, false, nil
}

// manifestRowsLocked renders the current segment stack as manifest rows;
// caller holds mu.
func (e *Engine) manifestRowsLocked() []SegmentInfo {
	rows := make([]SegmentInfo, len(e.segments))
	for i, s := range e.segments {
		rows[i] = segInfo(s)
	}
	return rows
}

// segInfo renders one segment's manifest row.
func segInfo(s *Segment) SegmentInfo {
	return SegmentInfo{
		ID:         s.ID(),
		File:       filepath.Base(s.Path()),
		MinID:      s.MinID(),
		MaxID:      s.MaxID(),
		Entries:    s.Count(),
		Puts:       s.Puts,
		Tombstones: s.Tombstones,
		Bytes:      s.Bytes(),
		BloomBits:  s.BloomBits(),
	}
}

// installSealed publishes a sealed segment: append to the stack, drop the
// frozen memtable, bump the generation, and charge older segments'
// shadowed-entry estimates.
func (e *Engine) installSealed(seg *Segment, gen uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	older := append([]*Segment(nil), e.segments...)
	e.segments = append(e.segments, seg)
	for id := range e.frozen {
		for i := len(older) - 1; i >= 0; i-- {
			if older[i].MayContain(id) {
				e.deadCount[older[i].ID()]++
				break
			}
		}
	}
	e.frozen = nil
	e.gen = gen
}

// Stats snapshots the engine.
func (e *Engine) Stats() EngineStats {
	st := e.shapeStats()
	st.Seals = e.seals.Load()
	st.Compactions = e.compactions.Load()
	st.BloomLookups = e.bloomLookups.Load()
	st.BloomFalsePositives = e.bloomFPs.Load()
	st.RateLimitStalls = e.rateStalls.Load()
	st.RateLimitStallNanos = e.rateStallNanos.Load()
	return st
}

func (e *Engine) shapeStats() EngineStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := EngineStats{
		Segments:        len(e.segments),
		Gen:             e.gen,
		MemtableEntries: len(e.active),
		MemtableBytes:   e.activeBytes,
		SealingEntries:  len(e.frozen),
	}
	for _, s := range e.segments {
		st.LiveBytes += s.Bytes()
		if n := s.Count(); n > 0 {
			st.DeadBytesEstimate += int64(e.deadCount[s.ID()]) * (s.Bytes() / int64(n))
		}
	}
	st.LiveBytes += e.activeBytes
	st.CompactionBacklog = e.backlogLocked()
	return st
}

// Manifest returns the current manifest view (for the CLI listing).
func (e *Engine) Manifest() Manifest {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return Manifest{Gen: e.gen, NextID: e.nextID, Segments: e.manifestRowsLocked()}
}

// Check runs the full integrity scan over every live segment. Stack
// position, not segment id, is the age order — a merge splices its output
// (which carries the newest id) in where the run stood — so the ids are
// only required to be unique and below the allocator's next id.
func (e *Engine) Check() (CheckResult, error) {
	e.mu.RLock()
	segs := append([]*Segment(nil), e.segments...)
	nextID, closed := e.nextID, e.closed
	e.mu.RUnlock()
	if closed {
		return CheckResult{}, ErrClosed
	}
	var res CheckResult
	seen := make(map[uint64]bool, len(segs))
	for _, s := range segs {
		res.Segments++
		res.Entries += s.Count()
		res.Bytes += s.Bytes()
		if seen[s.ID()] {
			res.Problems = append(res.Problems, fmt.Sprintf("segment id %d appears twice in the stack", s.ID()))
		}
		seen[s.ID()] = true
		if s.ID() >= nextID {
			res.Problems = append(res.Problems, fmt.Sprintf("segment id %d not below next id %d", s.ID(), nextID))
		}
		res.Problems = append(res.Problems, s.Check()...)
	}
	return res, nil
}

// background is the maintenance goroutine: seals on demand (size trigger)
// and compacts on a timer. Errors land in the sticky failure state.
func (e *Engine) background() {
	defer e.wg.Done()
	tick := time.NewTicker(compactEvery)
	defer tick.Stop()
	for {
		select {
		case <-e.stopCh:
			return
		case <-e.sealCh:
			e.maintain(true)
		case <-tick.C:
			e.maintain(false)
		}
	}
}

// maintain runs one maintenance round: optional seal, then compaction
// until the backlog drains.
func (e *Engine) maintain(seal bool) {
	e.ioMu.Lock()
	defer e.ioMu.Unlock()
	if seal {
		if err := e.sealIOLocked(); err != nil {
			return
		}
	}
	for {
		did, err := e.compactOnceIOLocked()
		if err != nil || !did {
			return
		}
	}
}

// Compact seals the memtable and merges until no eligible run remains —
// the synchronous "compact now" the CLI and HTTP surface call. Unlike the
// legacy store's Compact it does not stop the world: writers and readers
// proceed against the memtable and untouched segments throughout.
func (e *Engine) Compact() error {
	e.ioMu.Lock()
	defer e.ioMu.Unlock()
	if err := e.sealIOLocked(); err != nil {
		return err
	}
	for {
		did, err := e.compactOnceIOLocked()
		if err != nil {
			return err
		}
		if !did {
			return nil
		}
	}
}

// Close stops background maintenance and releases every file handle. It
// does NOT seal: the owner (core.DB) seals explicitly first, because only
// it knows the WAL checkpoint protocol. Close of a failed engine still
// releases handles.
func (e *Engine) Close() error {
	if e.backgroundRunning {
		e.closeOnce()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	e.closeAllLocked()
	return nil
}

// closeOnce stops the background goroutine exactly once.
func (e *Engine) closeOnce() {
	e.mu.Lock()
	already := e.closed
	e.mu.Unlock()
	if already {
		return
	}
	select {
	case <-e.stopCh:
	default:
		close(e.stopCh)
	}
	e.wg.Wait()
}

// closeAllLocked closes every segment handle; caller holds mu.
func (e *Engine) closeAllLocked() {
	for _, s := range e.segments {
		s.Close()
	}
	for _, s := range e.retired {
		s.Close()
	}
	e.segments, e.retired = nil, nil
}
