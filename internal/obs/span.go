package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed node of a query's execution tree: a name, a start/end
// pair, string attributes, per-span decision counters and child spans. Spans
// form a tree rooted at the query's entry point (the /v1 edge or the CLI);
// cross-process children arrive serialized in shard responses and are
// re-attached with Adopt, so a cluster query renders as one tree under a
// single 128-bit trace id.
//
// A nil *Span is valid and makes every method a no-op (StartChild returns
// nil), so instrumentation is threaded unconditionally and costs nothing —
// not even an allocation — when tracing is off.
type Span struct {
	traceID TraceID
	id      SpanID
	name    string
	start   time.Time

	mu       sync.Mutex
	dur      time.Duration    // guarded by mu; valid once ended
	ended    bool             // guarded by mu
	endSeq   uint64           // guarded by mu; global completion order
	attrs    []Attr           // guarded by mu
	counters map[string]int64 // guarded by mu; lazily allocated
	children []*Span          // guarded by mu
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// TraceID is the 128-bit id shared by every span of one query.
type TraceID [16]byte

// String renders the id as 32 lowercase hex digits (the traceparent form).
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the id is unset.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// SpanID is the 64-bit id of one span.
type SpanID [8]byte

// String renders the id as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the id is unset.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// idState seeds span/trace id generation: a crypto-random base stepped by
// splitmix64 per id. Uniqueness (not unpredictability) is the contract.
var idState atomic.Uint64

// endSeqState hands out global span-completion sequence numbers so Phases()
// can report completion order across goroutines.
var endSeqState atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err == nil {
		idState.Store(binary.LittleEndian.Uint64(seed[:]))
	} else {
		idState.Store(uint64(time.Now().UnixNano()))
	}
}

// nextID returns a non-zero 64-bit id (splitmix64 over a random-seeded
// counter: unique per process, well-mixed across processes).
func nextID() uint64 {
	for {
		x := idState.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// NewTraceID returns a fresh 128-bit trace id.
func NewTraceID() TraceID {
	var t TraceID
	binary.BigEndian.PutUint64(t[:8], nextID())
	binary.BigEndian.PutUint64(t[8:], nextID())
	return t
}

func newSpanID() SpanID {
	var s SpanID
	binary.BigEndian.PutUint64(s[:], nextID())
	return s
}

// NewRootSpan starts a root span under a fresh trace id.
func NewRootSpan(name string) *Span {
	return &Span{traceID: NewTraceID(), id: newSpanID(), name: name, start: time.Now()}
}

// NewRootSpanWithIDs starts a root span that continues a propagated trace:
// it keeps the caller's trace id and records the remote parent span id as an
// attribute so the adopting side can stitch trees.
func NewRootSpanWithIDs(trace TraceID, parent SpanID, name string) *Span {
	s := &Span{traceID: trace, id: newSpanID(), name: name, start: time.Now()}
	if !parent.IsZero() {
		s.SetAttr("parent_span_id", parent.String())
	}
	return s
}

// StartChild starts a child span. Nil-safe: a nil receiver returns nil, so
// call chains cost nothing when tracing is off.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{traceID: s.traceID, id: newSpanID(), name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End marks the span complete. Calling End twice keeps the first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = d
		s.endSeq = endSeqState.Add(1)
	}
	s.mu.Unlock()
}

// SetAttr annotates the span with a key/value pair. Repeated keys append;
// renderers show the last value.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Count adds n to a per-span decision counter. Safe on a nil span.
func (s *Span) Count(name string, n int64) {
	if s == nil || n == 0 {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]int64, 4)
	}
	s.counters[name] += n
	s.mu.Unlock()
}

// Adopt attaches an already-built span tree (typically deserialized from a
// shard response) as a child. The adopted tree keeps its own span ids; its
// trace id is expected to match the parent's (propagation guarantees it).
func (s *Span) Adopt(child *Span) {
	if s == nil || child == nil {
		return
	}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Trace returns the span's trace id (zero for nil).
func (s *Span) Trace() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.traceID
}

// ID returns the span's id (zero for nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Duration returns the recorded duration (0 while the span is open).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// Children returns a copy of the child span slice.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// Attrs returns a copy of the span's attributes.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Attr, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Attr returns the last value recorded for key ("" if absent).
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.attrs) - 1; i >= 0; i-- {
		if s.attrs[i].Key == key {
			return s.attrs[i].Value
		}
	}
	return ""
}

// Counters returns a copy of the span's own counters (children excluded).
func (s *Span) Counters() map[string]int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.counters) == 0 {
		return nil
	}
	out := make(map[string]int64, len(s.counters))
	for k, v := range s.counters {
		out[k] = v
	}
	return out
}

// Walk visits the span and every descendant in preorder. The callback must
// not mutate the tree.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children() {
		c.Walk(fn)
	}
}

// Digest renders a compact one-line shape of the tree — span names with
// nesting, e.g. "query(parse,terms(shard:s0,shard:s1))" — for slow-query
// log entries where the full tree would be noise.
func (s *Span) Digest() string {
	if s == nil {
		return ""
	}
	var b []byte
	b = s.digest(b, 0)
	return string(b)
}

func (s *Span) digest(b []byte, depth int) []byte {
	const maxDepth = 4
	b = append(b, s.Name()...)
	kids := s.Children()
	if len(kids) == 0 || depth >= maxDepth {
		if len(kids) > 0 {
			b = append(b, "(…)"...)
		}
		return b
	}
	b = append(b, '(')
	for i, c := range kids {
		if i > 0 {
			b = append(b, ',')
		}
		b = c.digest(b, depth+1)
	}
	b = append(b, ')')
	return b
}

// Traceparent renders the span as a W3C-style traceparent header value:
// "00-<32 hex trace id>-<16 hex span id>-01". Empty for a nil span.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return "00-" + s.traceID.String() + "-" + s.id.String() + "-01"
}

// ParseTraceparent parses a traceparent header value. It accepts any
// version byte and ignores the flags; ok is false for malformed values or
// all-zero ids (which the spec defines as invalid).
func ParseTraceparent(h string) (trace TraceID, span SpanID, ok bool) {
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceID{}, SpanID{}, false
	}
	if _, err := hex.Decode(trace[:], []byte(h[3:35])); err != nil {
		return TraceID{}, SpanID{}, false
	}
	if _, err := hex.Decode(span[:], []byte(h[36:52])); err != nil {
		return TraceID{}, SpanID{}, false
	}
	if trace.IsZero() || span.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return trace, span, true
}

// spanJSON is the wire form of a span tree. Durations travel as
// microseconds (stable across platforms); ids as lowercase hex.
type spanJSON struct {
	Name     string            `json:"name"`
	SpanID   string            `json:"span_id,omitempty"`
	Micros   float64           `json:"duration_us"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Counters map[string]int64  `json:"counters,omitempty"`
	Children []spanJSON        `json:"children,omitempty"`
}

func (s *Span) toJSON() spanJSON {
	s.mu.Lock()
	out := spanJSON{
		Name:   s.name,
		SpanID: s.id.String(),
		Micros: float64(s.dur.Nanoseconds()) / 1e3,
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	if len(s.counters) > 0 {
		out.Counters = make(map[string]int64, len(s.counters))
		for k, v := range s.counters {
			out.Counters[k] = v
		}
	}
	kids := make([]*Span, len(s.children))
	copy(kids, s.children)
	s.mu.Unlock()
	for _, c := range kids {
		out.Children = append(out.Children, c.toJSON())
	}
	return out
}

// MarshalJSON renders the span tree in wire form.
func (s *Span) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	return json.Marshal(s.toJSON())
}

func spanFromJSON(trace TraceID, in spanJSON) (*Span, error) {
	s := &Span{traceID: trace, name: in.Name}
	if in.SpanID != "" {
		if _, err := hex.Decode(s.id[:], []byte(in.SpanID)); err != nil {
			return nil, fmt.Errorf("obs: span id %q: %w", in.SpanID, err)
		}
	} else {
		s.id = newSpanID()
	}
	s.mu.Lock()
	s.dur = time.Duration(in.Micros * 1e3)
	s.ended = true
	s.endSeq = endSeqState.Add(1)
	for k, v := range in.Attrs {
		s.attrs = append(s.attrs, Attr{Key: k, Value: v})
	}
	sortAttrs(s.attrs)
	if len(in.Counters) > 0 {
		s.counters = make(map[string]int64, len(in.Counters))
		for k, v := range in.Counters {
			s.counters[k] = v
		}
	}
	s.mu.Unlock()
	for _, c := range in.Children {
		child, err := spanFromJSON(trace, c)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.children = append(s.children, child)
		s.mu.Unlock()
	}
	return s, nil
}

// sortAttrs keeps deserialized attributes deterministic (JSON maps have no
// order).
func sortAttrs(attrs []Attr) {
	for i := 1; i < len(attrs); i++ {
		for j := i; j > 0 && attrs[j].Key < attrs[j-1].Key; j-- {
			attrs[j], attrs[j-1] = attrs[j-1], attrs[j]
		}
	}
}

// UnmarshalJSON rebuilds a span tree from wire form. The spans come back
// ended with their recorded durations; the trace id is taken from the
// enclosing Trace document (zero when a bare span is parsed).
func (s *Span) UnmarshalJSON(data []byte) error {
	var in spanJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	parsed, err := spanFromJSON(TraceID{}, in)
	if err != nil {
		return err
	}
	s.traceID = parsed.traceID
	s.id = parsed.id
	s.name = parsed.name
	parsed.mu.Lock()
	s.mu.Lock()
	s.dur = parsed.dur
	s.ended = parsed.ended
	s.endSeq = parsed.endSeq
	s.attrs = parsed.attrs
	s.counters = parsed.counters
	s.children = parsed.children
	s.mu.Unlock()
	parsed.mu.Unlock()
	return nil
}

// setTraceID rewrites the trace id across the whole tree (used when a
// deserialized tree is adopted under a known trace).
func (s *Span) setTraceID(trace TraceID) {
	if s == nil {
		return
	}
	s.traceID = trace
	for _, c := range s.Children() {
		c.setTraceID(trace)
	}
}

// decodeHexID decodes an exact-length lowercase-hex id into dst.
func decodeHexID(dst []byte, s string) error {
	if len(s) != 2*len(dst) {
		return fmt.Errorf("obs: hex id %q: want %d digits", s, 2*len(dst))
	}
	if _, err := hex.Decode(dst, []byte(s)); err != nil {
		return fmt.Errorf("obs: hex id %q: %w", s, err)
	}
	return nil
}

// ctxKeySpan carries the active *Span through a context.
type ctxKeySpan struct{}

// ContextWithSpan returns a context carrying sp. A nil span returns ctx
// unchanged so untraced paths allocate nothing.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKeySpan{}, sp)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKeySpan{}).(*Span)
	return sp
}

// ctxKeyRequestID carries the client-visible request id through a context
// so cluster fan-out legs share the id the edge minted.
type ctxKeyRequestID struct{}

// ContextWithRequestID returns a context carrying a request id. An empty id
// returns ctx unchanged.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, ctxKeyRequestID{}, id)
}

// RequestIDFromContext returns the request id carried by ctx, or "".
func RequestIDFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(ctxKeyRequestID{}).(string)
	return id
}

// NewRequestID mints a process-unique request id ("req-" + 16 hex chars)
// for request edges — the HTTP server and the cluster coordinator — so
// every fan-out leg and error envelope can carry one correlating id.
func NewRequestID() string {
	var id SpanID
	binary.BigEndian.PutUint64(id[:], nextID())
	return "req-" + id.String()
}
