package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// QueryEvent is one query wide-event: everything the slow-query log knows
// about a single answered query. Durations travel as nanoseconds (the
// encoding/json form of time.Duration).
type QueryEvent struct {
	Time       time.Time         `json:"time"`
	RequestID  string            `json:"request_id,omitempty"`
	TraceIDHex string            `json:"trace_id,omitempty"`
	Kind       string            `json:"kind"`     // range | compound | multirange | knn | cluster
	Strategy   string            `json:"strategy"` // answer mode or knn metric
	Query      string            `json:"query"`    // text form of the predicate
	Duration   time.Duration     `json:"duration_ns"`
	Results    int               `json:"results"`
	Partial    bool              `json:"partial,omitempty"`
	Error      string            `json:"error,omitempty"`
	SpanDigest string            `json:"span_digest,omitempty"`
	Counters   map[string]int64  `json:"counters,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// QueryLog keeps two bounded views of recent query activity:
//
//   - slowest: the N slowest events at or above the latency threshold, a
//     min-replaced ring so one burst of slow queries cannot evict a slower
//     older one.
//   - recent: a head/tail-sampled ring of the most recent events. The
//     first headPerWindow events of each one-minute window are always kept
//     (the head — so a quiet server still shows activity), every event at
//     or above the threshold is always kept (the tail — slow queries are
//     never sampled away), and the remainder keeps 1 in sampleEvery.
//
// Everything lives in memory; Snapshot serves /debug/querylog. A nil
// *QueryLog drops every event.
type QueryLog struct {
	threshold atomic.Int64 // ns; events >= threshold count as slow

	mu          sync.Mutex
	capSlow     int
	capRecent   int
	headPer     int
	sampleEvery uint64
	windowStart time.Time    // guarded by mu
	headCount   int          // guarded by mu
	seq         uint64       // guarded by mu
	slow        []QueryEvent // guarded by mu; sorted ascending by duration
	recent      []QueryEvent // guarded by mu; ring, recentPos is next write
	recentPos   int          // guarded by mu
	total       uint64       // guarded by mu; events offered
	kept        uint64       // guarded by mu; events kept in recent
}

// Query-log sizing defaults. The log is diagnostic, not archival: big
// enough to show what the server was doing, small enough to never matter.
const (
	DefaultSlowCap       = 32
	DefaultRecentCap     = 128
	DefaultHeadPerWindow = 16
	DefaultSampleEvery   = 16
)

// NewQueryLog returns a log keeping the slowCap slowest and a recentCap
// sampled stream (zeros take the defaults).
func NewQueryLog(slowCap, recentCap int) *QueryLog {
	if slowCap <= 0 {
		slowCap = DefaultSlowCap
	}
	if recentCap <= 0 {
		recentCap = DefaultRecentCap
	}
	return &QueryLog{
		capSlow:     slowCap,
		capRecent:   recentCap,
		headPer:     DefaultHeadPerWindow,
		sampleEvery: DefaultSampleEvery,
	}
}

var defaultQueryLog = NewQueryLog(0, 0)

// DefaultQueryLog returns the process-wide log /debug/querylog serves.
func DefaultQueryLog() *QueryLog { return defaultQueryLog }

// SetThreshold sets the slow-query latency threshold. Events at or above
// it always enter both views; 0 means every event is slow-eligible (the
// slowest ring then simply keeps the N slowest seen).
func (l *QueryLog) SetThreshold(d time.Duration) {
	if l == nil {
		return
	}
	l.threshold.Store(int64(d))
}

// Record offers one event to the log. Safe on a nil log.
func (l *QueryLog) Record(ev QueryEvent) {
	if l == nil {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	slow := ev.Duration >= time.Duration(l.threshold.Load())
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	l.seq++
	if slow {
		l.recordSlowLocked(ev)
	}
	// Head/tail sampling for the recent stream.
	if l.windowStart.IsZero() || ev.Time.Sub(l.windowStart) > time.Minute {
		l.windowStart = ev.Time
		l.headCount = 0
	}
	keep := slow
	if l.headCount < l.headPer {
		l.headCount++
		keep = true
	} else if l.seq%l.sampleEvery == 0 {
		keep = true
	}
	if !keep {
		return
	}
	l.kept++
	if len(l.recent) < l.capRecent {
		l.recent = append(l.recent, ev)
		l.recentPos = len(l.recent) % l.capRecent
		return
	}
	l.recent[l.recentPos] = ev
	l.recentPos = (l.recentPos + 1) % l.capRecent
}

// recordSlowLocked inserts ev into the ascending slow ring, evicting the
// current minimum when full.
func (l *QueryLog) recordSlowLocked(ev QueryEvent) {
	if len(l.slow) >= l.capSlow {
		if ev.Duration <= l.slow[0].Duration {
			return
		}
		copy(l.slow, l.slow[1:])
		l.slow = l.slow[:len(l.slow)-1]
	}
	i := len(l.slow)
	for i > 0 && l.slow[i-1].Duration > ev.Duration {
		i--
	}
	l.slow = append(l.slow, QueryEvent{})
	copy(l.slow[i+1:], l.slow[i:])
	l.slow[i] = ev
}

// QueryLogSnapshot is the /debug/querylog document.
type QueryLogSnapshot struct {
	ThresholdNS int64        `json:"threshold_ns"`
	Total       uint64       `json:"total"`   // events offered since start
	Sampled     uint64       `json:"sampled"` // events kept in the recent stream
	Slowest     []QueryEvent `json:"slowest"` // slowest first
	Recent      []QueryEvent `json:"recent"`  // newest first
}

// Snapshot copies both views: slowest descending by duration, recent
// newest-first.
func (l *QueryLog) Snapshot() QueryLogSnapshot {
	if l == nil {
		return QueryLogSnapshot{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := QueryLogSnapshot{
		ThresholdNS: l.threshold.Load(),
		Total:       l.total,
		Sampled:     l.kept,
		Slowest:     make([]QueryEvent, 0, len(l.slow)),
		Recent:      make([]QueryEvent, 0, len(l.recent)),
	}
	for i := len(l.slow) - 1; i >= 0; i-- {
		out.Slowest = append(out.Slowest, l.slow[i])
	}
	// The ring's newest element sits just before recentPos once full;
	// before that, at the end of the slice.
	n := len(l.recent)
	start := l.recentPos - 1
	if n < l.capRecent {
		start = n - 1
	}
	for i := 0; i < n; i++ {
		idx := ((start-i)%n + n) % n
		out.Recent = append(out.Recent, l.recent[idx])
	}
	return out
}

// Reset clears both views (tests).
func (l *QueryLog) Reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.slow = nil
	l.recent = nil
	l.recentPos = 0
	l.total, l.kept, l.seq = 0, 0, 0
	l.headCount = 0
	l.windowStart = time.Time{}
}
