package obs

import (
	"encoding/json"
	"sort"
	"time"
)

// Trace records one query's execution as a span tree rooted at the query
// entry point, plus the flat phase/counter views that predate spans. A nil
// *Trace is valid and makes every method a no-op, so the query engine
// threads traces unconditionally and pays nothing when tracing is off.
//
// Phase/Count keep their PR-1 semantics (phases are reported in completion
// order; counter keys are short snake_case names local to the trace) but
// are now implemented on the tree: Phase starts a child of the root span,
// Count records on the root, Counters aggregates over every span including
// subtrees adopted from remote shards.
type Trace struct {
	root *Span
}

// PhaseTiming is one completed phase (a completed span).
type PhaseTiming struct {
	Name     string        `json:"name"`
	Duration time.Duration `json:"-"`
}

// NewTrace returns a trace under a fresh 128-bit trace id.
func NewTrace() *Trace {
	return &Trace{root: NewRootSpan("query")}
}

// NewTraceWithParent returns a trace that continues a propagated trace
// context: same trace id, new root span recording the remote parent span
// id. Used by the server edge when a traceparent header arrives.
func NewTraceWithParent(trace TraceID, parent SpanID) *Trace {
	return &Trace{root: NewRootSpanWithIDs(trace, parent, "query")}
}

// TraceForSpan wraps an existing span as a trace root so span-threaded code
// can call the *Trace query APIs. Nil-safe: a nil span yields a nil trace.
func TraceForSpan(sp *Span) *Trace {
	if sp == nil {
		return nil
	}
	return &Trace{root: sp}
}

// Root returns the root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// TraceID returns the trace's 128-bit id (zero for nil).
func (t *Trace) TraceID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.root.Trace()
}

// StartSpan starts a named child span of the root. Nil-safe.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return t.root.StartChild(name)
}

// Phase starts a named phase and returns the function that ends it:
//
//	done := tr.Phase("scan-binaries")
//	... work ...
//	done()
//
// Safe on a nil trace (returns a no-op). A phase is a child span of the
// root; it appears in both Phases() and the span tree.
func (t *Trace) Phase(name string) func() {
	if t == nil {
		return func() {}
	}
	sp := t.root.StartChild(name)
	return sp.End
}

// Count adds n to a named decision counter (on the root span). Safe on a
// nil trace.
func (t *Trace) Count(name string, n int64) {
	if t == nil {
		return
	}
	t.root.Count(name, n)
}

// Counters returns the decision counters aggregated over the whole span
// tree (root counters plus every descendant, including adopted remote
// subtrees).
func (t *Trace) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	out := make(map[string]int64)
	t.root.Walk(func(s *Span) {
		s.mu.Lock()
		for k, v := range s.counters {
			out[k] += v
		}
		s.mu.Unlock()
	})
	return out
}

// Get returns one counter's aggregated value (0 if never counted).
func (t *Trace) Get(name string) int64 {
	if t == nil {
		return 0
	}
	var total int64
	t.root.Walk(func(s *Span) {
		s.mu.Lock()
		total += s.counters[name]
		s.mu.Unlock()
	})
	return total
}

// Phases returns every completed span below the root, in completion order.
// The root itself is excluded (it is usually still open while consumers
// render).
func (t *Trace) Phases() []PhaseTiming {
	if t == nil {
		return nil
	}
	type seqPhase struct {
		seq uint64
		p   PhaseTiming
	}
	var all []seqPhase
	for _, c := range t.root.Children() {
		c.Walk(func(s *Span) {
			s.mu.Lock()
			if s.ended {
				all = append(all, seqPhase{seq: s.endSeq, p: PhaseTiming{Name: s.name, Duration: s.dur}})
			}
			s.mu.Unlock()
		})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]PhaseTiming, len(all))
	for i, sp := range all {
		out[i] = sp.p
	}
	return out
}

// phaseJSON renders a phase with the duration in microseconds (stable
// across platforms, fine-grained enough for in-memory bin tests).
type phaseJSON struct {
	Name     string  `json:"name"`
	Micros   float64 `json:"duration_us"`
	Fraction float64 `json:"fraction,omitempty"`
}

// traceJSON is the trace wire form: the legacy flat views plus the span
// tree and trace id.
type traceJSON struct {
	TraceID  string           `json:"trace_id,omitempty"`
	Phases   []phaseJSON      `json:"phases"`
	Counters map[string]int64 `json:"counters"`
	Spans    json.RawMessage  `json:"spans,omitempty"`
}

// MarshalJSON renders the trace as {"trace_id", "phases", "counters",
// "spans"}. Phases and counters keep their PR-1 shapes (each phase carries
// its share of the summed phase time); spans is the full tree.
func (t *Trace) MarshalJSON() ([]byte, error) {
	phases := t.Phases()
	var total time.Duration
	for _, p := range phases {
		total += p.Duration
	}
	pj := make([]phaseJSON, len(phases))
	for i, p := range phases {
		pj[i] = phaseJSON{Name: p.Name, Micros: float64(p.Duration.Nanoseconds()) / 1e3}
		if total > 0 {
			pj[i].Fraction = float64(p.Duration) / float64(total)
		}
	}
	out := traceJSON{Phases: pj, Counters: t.Counters()}
	if t != nil {
		out.TraceID = t.TraceID().String()
		spans, err := json.Marshal(t.root)
		if err != nil {
			return nil, err
		}
		out.Spans = spans
	}
	return json.Marshal(out)
}

// UnmarshalJSON rebuilds a trace from wire form. The span tree is the
// source of truth; the flat phases/counters fields are derived views and
// are ignored when spans are present. Wire documents without spans (old
// peers) rebuild a root carrying the counters and one ended child per
// phase.
func (t *Trace) UnmarshalJSON(data []byte) error {
	var in traceJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	var trace TraceID
	if in.TraceID != "" {
		if err := decodeHexID(trace[:], in.TraceID); err != nil {
			return err
		}
	}
	if len(in.Spans) > 0 && string(in.Spans) != "null" {
		root := &Span{}
		if err := json.Unmarshal(in.Spans, root); err != nil {
			return err
		}
		root.setTraceID(trace)
		t.root = root
		return nil
	}
	root := NewRootSpanWithIDs(trace, SpanID{}, "query")
	for _, p := range in.Phases {
		c := root.StartChild(p.Name)
		c.mu.Lock()
		c.dur = time.Duration(p.Micros * 1e3)
		c.ended = true
		c.endSeq = endSeqState.Add(1)
		c.mu.Unlock()
	}
	for k, v := range in.Counters {
		root.Count(k, v)
	}
	root.End()
	t.root = root
	return nil
}

// Trace counter keys shared across the query engine. Keeping them here
// (rather than scattered string literals) pins the wire names the /query
// ?trace=1 response documents.
const (
	TCandidatesExamined = "candidates_examined"
	TBaseMatches        = "base_matches"
	TClusterHits        = "bwm_cluster_hits"
	TFastPathAdmitted   = "bwm_fastpath_admitted"
	TUnclassifiedWalked = "bwm_unclassified_walked"
	TEditedWalked       = "edited_walked"
	TRulesEvaluated     = "rules_evaluated"
	TImagesPruned       = "images_pruned"
	TImagesReturned     = "images_returned"
	TEditedInstantiated = "edited_instantiated"
	// Parallel-execution counters (recorded only when a query actually
	// fanned out, so serial traces are unchanged): worker goroutines used,
	// candidates evaluated by the pool, chunk claims beyond each worker's
	// first, and early-canceled runs.
	TParallelWorkers = "parallel_workers"
	TParallelTasks   = "parallel_tasks"
	TParallelSteals  = "parallel_steals"
	TParallelCancels = "parallel_cancels"
	// Cluster scatter-gather counters (recorded by the coordinator, not by
	// individual shards): shards fanned out to, shards that failed past
	// their retry budget, queries answered partially, and duplicate ids
	// dropped by the merge (merge-target replicas matching on two shards).
	TClusterShardsQueried    = "cluster_shards_queried"
	TClusterShardsFailed     = "cluster_shards_failed"
	TClusterPartialResults   = "cluster_partial_results"
	TClusterDuplicatesMerged = "cluster_duplicates_merged"
	TClusterRetries          = "cluster_retries"
	TClusterHedges           = "cluster_hedges"
	// WAL counters recorded on durability spans: records appended and the
	// group-commit batch size the fsync wait rode on.
	TWALRecords   = "wal_records"
	TWALGroupSize = "wal_group_size"
	// Names of the deleted segment-sketch skip's counters. Nothing counts
	// them any more; they stay because the frozen benchmark harness compiles
	// against them (both of its per-layer rows read 0).
	TSegmentSketchChecks = "segment_sketch_checks"
	TSegmentSkipped      = "segment_skipped"
	// Bounds-S-tree counters (ModeIndexed): union boxes classified during
	// the descent, candidates admitted through a fully contained ancestor
	// without individual checks, and candidate boxes tested individually in
	// partially overlapping leaves. nodes_visited growing sublinearly in the
	// catalog size on selective queries is the index's reason to exist.
	TIndexNodesVisited    = "index_nodes_visited"
	TIndexSubtreeAdmitted = "index_subtree_admitted"
	TIndexLeafChecks      = "index_leaf_checks"
)
