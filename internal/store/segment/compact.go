package segment

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Size-tiered compaction. Segments are merged only in *consecutive* runs
// (age order), because the stack's correctness depends on position: a
// newer segment's entry shadows the same id in any older one. Merging a
// consecutive run into a single segment placed at the run's position
// preserves that order globally.
//
// Run selection, in priority order:
//
//  1. the oldest run of ≥ FanIn consecutive segments in the same size
//     tier (tiers are ×4 buckets, so merging produces a segment roughly
//     one tier up rather than re-merging the same bytes repeatedly);
//  2. when the stack still exceeds MaxSegments, the oldest-prefix run
//     that brings it back to MaxSegments.
//
// A tombstone is dropped during a merge only when the run includes the
// oldest segment: then no older segment can hold a shadowed version, and
// a WAL delete record that survives below the checkpoint floor replays as
// a no-op against the already-absent id. Anywhere else the tombstone must
// survive to keep shadowing.
//
// Inputs are retired, not closed: concurrent readers may hold a snapshot
// of the old stack, and an open fd keeps the unlinked file readable until
// the engine closes.

// tierBase is the smallest size tier; each tier spans ×4.
const tierBase = 64 << 10

// sizeTier buckets a segment size: 0 for ≤64KiB, 1 for ≤256KiB, …
func sizeTier(bytes int64) int {
	t := 0
	for b := bytes / tierBase; b > 0; b >>= 2 {
		t++
	}
	return t
}

// pickRunLocked selects the next run to merge as [i, j); caller holds mu
// (read or write).
func (e *Engine) pickRunLocked() (int, int, bool) {
	segs := e.segments
	for i := 0; i < len(segs); {
		j := i + 1
		for j < len(segs) && sizeTier(segs[j].Bytes()) == sizeTier(segs[i].Bytes()) {
			j++
		}
		if j-i >= e.opts.FanIn {
			return i, j, true
		}
		i = j
	}
	if len(segs) > e.opts.MaxSegments {
		j := len(segs) - e.opts.MaxSegments + 1
		if j < 2 {
			j = 2
		}
		return 0, j, true
	}
	return 0, 0, false
}

// backlogLocked counts eligible merge runs; caller holds mu.
func (e *Engine) backlogLocked() int {
	segs := e.segments
	n := 0
	for i := 0; i < len(segs); {
		j := i + 1
		for j < len(segs) && sizeTier(segs[j].Bytes()) == sizeTier(segs[i].Bytes()) {
			j++
		}
		if j-i >= e.opts.FanIn {
			n++
		}
		i = j
	}
	if len(segs) > e.opts.MaxSegments {
		n++
	}
	return n
}

// compactOnceIOLocked performs one merge cycle; caller holds ioMu.
// Returns whether a merge happened.
func (e *Engine) compactOnceIOLocked() (bool, error) {
	inputs, i, j, gen, outID, ok, err := e.planCompaction()
	if err != nil || !ok {
		return false, err
	}
	dropTombs := i == 0
	if err := e.failpoint("compact.start"); err != nil {
		return false, err
	}
	out, err := e.mergeRun(inputs, outID, dropTombs)
	if err != nil {
		return false, err
	}
	if err := e.failpoint("compact.before-manifest"); err != nil {
		if out != nil {
			out.Close()
		}
		return false, err
	}
	rows := e.rowsAfterMerge(i, j, out)
	man := &Manifest{Gen: gen + 1, NextID: outID + 1, Segments: rows}
	if err := writeManifest(e.dir, man, e.failpoint); err != nil {
		e.fail(err)
		if out != nil {
			out.Close()
		}
		return false, err
	}
	paths := e.installCompacted(i, j, out, gen+1)
	e.compactions.Add(1)
	mCompactions.Inc()
	if out != nil {
		mCompactedByte.Add(out.Bytes())
	}
	if err := e.failpoint("compact.after-manifest"); err != nil {
		return false, err
	}
	// Unlink the merged inputs; retired handles keep them readable for
	// snapshots taken before the swap.
	for _, p := range paths {
		os.Remove(p)
	}
	e.updateShapeGauges()
	return true, nil
}

// planCompaction snapshots the run to merge and allocates the output
// segment id.
func (e *Engine) planCompaction() (inputs []*Segment, i, j int, gen, outID uint64, ok bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if uerr := e.usableLocked(); uerr != nil {
		return nil, 0, 0, 0, 0, false, uerr
	}
	i, j, ok = e.pickRunLocked()
	if !ok {
		return nil, 0, 0, 0, 0, false, nil
	}
	inputs = append([]*Segment(nil), e.segments[i:j]...)
	gen = e.gen
	outID = e.nextID
	e.nextID++
	return inputs, i, j, gen, outID, true, nil
}

// rowsAfterMerge renders the post-merge manifest: the untouched prefix,
// the merged output (if non-empty), the untouched suffix. The segment
// stack cannot change while ioMu is held, so reading it here is stable.
func (e *Engine) rowsAfterMerge(i, j int, out *Segment) []SegmentInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	rows := make([]SegmentInfo, 0, len(e.segments)-(j-i)+1)
	for _, s := range e.segments[:i] {
		rows = append(rows, segInfo(s))
	}
	if out != nil {
		rows = append(rows, segInfo(out))
	}
	for _, s := range e.segments[j:] {
		rows = append(rows, segInfo(s))
	}
	return rows
}

// installCompacted splices the merged segment into the stack, retires the
// inputs, and returns their file paths for unlinking.
func (e *Engine) installCompacted(i, j int, out *Segment, gen uint64) []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	paths := make([]string, 0, j-i)
	for _, s := range e.segments[i:j] {
		paths = append(paths, s.Path())
		delete(e.deadCount, s.ID())
		e.retired = append(e.retired, s)
	}
	next := make([]*Segment, 0, len(e.segments)-(j-i)+1)
	next = append(next, e.segments[:i]...)
	if out != nil {
		next = append(next, out)
	}
	next = append(next, e.segments[j:]...)
	e.segments = next
	e.gen = gen
	return paths
}

// segCursor walks one segment's entries in file order.
type segCursor struct {
	seg *Segment
	off int64
	cur Entry
	ok  bool
}

func newSegCursor(s *Segment) (*segCursor, error) {
	c := &segCursor{seg: s, off: segHeaderSize}
	return c, c.advance()
}

func (c *segCursor) advance() error {
	if c.off >= c.seg.sumOff {
		c.ok = false
		return nil
	}
	e, next, err := c.seg.readFrameAt(c.off, nil)
	if err != nil {
		return err
	}
	c.cur, c.off, c.ok = e, next, true
	return nil
}

// mergeRun k-way merges the inputs (oldest first) into a new segment,
// newest input winning ties. Returns nil (no output) when every surviving
// entry was a droppable tombstone. The merge loop is rate-limited so a
// big compaction cannot monopolize disk bandwidth against foreground
// seals and queries.
func (e *Engine) mergeRun(inputs []*Segment, outID uint64, dropTombs bool) (*Segment, error) {
	cursors := make([]*segCursor, len(inputs))
	for k, s := range inputs {
		c, err := newSegCursor(s)
		if err != nil {
			e.fail(err)
			return nil, err
		}
		cursors[k] = c
	}
	path := filepath.Join(e.dir, segmentFileName(outID))
	w, err := NewWriter(path, outID, e.opts.SummaryEvery, e.opts.BloomBitsPerKey)
	if err != nil {
		e.fail(err)
		return nil, err
	}
	lim := newRateLimiter(e.opts.RateBytesPerSec, &e.rateStalls, &e.rateStallNanos)
	first := true
	for {
		min, any := uint64(0), false
		for _, c := range cursors {
			if c.ok && (!any || c.cur.ID < min) {
				min, any = c.cur.ID, true
			}
		}
		if !any {
			break
		}
		var winner Entry
		for _, c := range cursors { // inputs are oldest→newest; last match wins
			if c.ok && c.cur.ID == min {
				winner = c.cur
			}
		}
		for _, c := range cursors {
			if c.ok && c.cur.ID == min {
				if err := c.advance(); err != nil {
					w.Abort()
					e.fail(err)
					return nil, err
				}
			}
		}
		if winner.Kind == EntryTombstone && dropTombs {
			continue
		}
		before := w.Bytes()
		if err := w.Append(winner); err != nil {
			w.Abort()
			e.fail(err)
			return nil, err
		}
		lim.consume(w.Bytes() - before)
		if first {
			first = false
			if err := e.failpoint("compact.mid-merge"); err != nil {
				// Crash simulation: leave the partial file as a kill -9
				// would; Open's orphan sweep removes it.
				w.f.Close()
				return nil, err
			}
		}
	}
	if w.Count() == 0 {
		w.Abort()
		return nil, nil
	}
	out, err := w.Finish()
	if err != nil {
		e.fail(err)
		return nil, err
	}
	return out, nil
}

// rateLimiter is a token bucket over bytes with a one-second burst,
// counting stalls and stalled time into the engine's metrics.
type rateLimiter struct {
	rate      int64 // bytes/sec; ≤0 disables
	allowance float64
	last      time.Time
	stalls    *atomic.Int64
	stallNs   *atomic.Int64
}

func newRateLimiter(rate int64, stalls, stallNs *atomic.Int64) *rateLimiter {
	return &rateLimiter{rate: rate, allowance: float64(rate), last: time.Now(), stalls: stalls, stallNs: stallNs}
}

func (l *rateLimiter) consume(n int64) {
	if l.rate <= 0 {
		return
	}
	now := time.Now()
	l.allowance += now.Sub(l.last).Seconds() * float64(l.rate)
	l.last = now
	if l.allowance > float64(l.rate) {
		l.allowance = float64(l.rate) // burst cap: one second of budget
	}
	l.allowance -= float64(n)
	if l.allowance >= 0 {
		return
	}
	sleep := time.Duration(-l.allowance / float64(l.rate) * float64(time.Second))
	l.stalls.Add(1)
	l.stallNs.Add(int64(sleep))
	mRateStalls.Inc()
	mRateStallNs.Add(int64(sleep))
	time.Sleep(sleep)
	l.allowance = 0
	l.last = time.Now()
}
