// Package server exposes a database over HTTP — the MMDBMS service surface:
// object CRUD, augmentation, color range queries, query-by-example and
// maintenance, with rasters carried as PPM or PNG bodies and metadata as
// JSON. Built entirely on net/http (stdlib only, like the rest of the
// repository).
//
// The API is versioned under /v1:
//
//	POST   /v1/objects              insert a raster (body: image/x-portable-pixmap or image/png; ?id= pins the object id)
//	POST   /v1/sequences            insert an edited image (body: text script; ?id= pins the object id)
//	GET    /v1/objects              list objects
//	GET    /v1/objects/{id}         object metadata
//	GET    /v1/objects/{id}/image   materialized raster (?format=ppm|png)
//	POST   /v1/objects/{id}/augment generate edited versions
//	DELETE /v1/objects/{id}         delete an object
//	GET    /v1/query?q=...&mode=... color range query (compound supported; &trace=1 adds a trace, &limit=N caps the page, &after=ID resumes past an id)
//	GET    /v1/multirange?bins=...  structured multi-range query (bins=0,3,7&min=..&max=..&limit=N&after=ID; no text form exists)
//	GET    /v1/explain?q=...        query plan without execution (&trace=1 also runs it and returns the measured trace)
//	POST   /v1/similar?k=...        query by example (body: image)
//	GET    /v1/stats                database statistics
//	GET    /v1/wal                  write-ahead-log statistics
//	GET    /v1/wal/tail             durable WAL frames above a cursor (replication stream; long-poll)
//	GET    /v1/replication          replica role/lag status (long-poll on applied LSN)
//	POST   /v1/promote              become the replica set's leader
//	POST   /v1/follow               start tailing a leader (body: {"leader": url})
//	POST   /v1/checkpoint           force a durability checkpoint (truncates the WAL)
//	POST   /v1/compact              rewrite the store file
//
// Every API route has exactly this one URL; only the operational endpoints
// are unversioned:
//
//	GET    /healthz              liveness probe (cluster health checks hit this)
//	GET    /metrics              process metrics (Prometheus text; ?format=json)
//	GET    /debug/pprof/         runtime profiles (heap, cpu, goroutine, ...)
//
// Errors use one JSON envelope on every route:
//
//	{"error": "...", "code": "not_found|conflict|bad_request|too_large|internal", "request_id": "req-000042"}
//
// The answers of /v1/query and /v1/multirange and the list of /v1/objects are
// written by internal/api's encoder (writeAnswer) with a Content-Length; an
// object deleted while its answer is being assembled is left out, not
// reported. A request whose Accept names application/x-esidb-answer gets
// them as internal/api's column frame instead of JSON, and both shapes carry
// Vary: Accept. Every other body is encoding/json's.
//
// Mutating requests are acknowledged only after the write-ahead log has
// fsynced them (group commit); cancelling a request's context abandons the
// wait but the write may still commit.
//
// Every request is tagged with an X-Request-ID, timed into per-route
// latency histograms (esidb_http_request_seconds{route=...}) and status
// counters (esidb_http_responses_total{route=...,status=...}), and logged
// through a structured slog.Logger.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	mmdb "repro"
	"repro/internal/api"
	"repro/internal/catalog"
	"repro/internal/obs"
)

// MaxUploadBytes caps raster and script request bodies; oversized uploads
// fail with 413 Request Entity Too Large rather than exhausting memory.
const MaxUploadBytes = 64 << 20

// Server is an http.Handler serving one database.
type Server struct {
	db     *mmdb.DB
	mux    *http.ServeMux
	logger *slog.Logger
	reqID  atomic.Uint64
	rep    Replication // nil unless WithReplication wired it
}

// New returns a handler over db. Requests log to slog.Default() unless
// WithLogger overrides it.
func New(db *mmdb.DB) *Server {
	s := &Server{db: db, mux: http.NewServeMux(), logger: slog.Default()}
	s.api("POST", "/objects", s.handleInsert)
	s.api("POST", "/sequences", s.handleInsertSequence)
	s.api("GET", "/objects", s.handleList)
	s.api("GET", "/objects/{id}", s.handleGet)
	s.api("GET", "/objects/{id}/image", s.handleImage)
	s.api("POST", "/objects/{id}/augment", s.handleAugment)
	s.api("DELETE", "/objects/{id}", s.handleDelete)
	s.api("GET", "/query", s.handleQuery)
	s.api("GET", "/multirange", s.handleMultiRange)
	s.api("GET", "/explain", s.handleExplain)
	s.api("POST", "/similar", s.handleSimilar)
	s.api("GET", "/stats", s.handleStats)
	s.api("GET", "/wal", s.handleWALStats)
	s.api("GET", "/wal/tail", s.handleWALTail)
	s.api("GET", "/replication", s.handleReplication)
	s.api("POST", "/promote", s.handlePromote)
	s.api("POST", "/follow", s.handleFollow)
	s.api("POST", "/checkpoint", s.handleCheckpoint)
	s.api("POST", "/compact", s.handleCompact)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/querylog", s.handleQueryLog)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// api registers an API route under /v1, its only URL.
func (s *Server) api(method, path string, h http.HandlerFunc) {
	s.mux.HandleFunc(method+" /v1"+path, h)
}

// WithLogger makes the server log one structured line per request to l
// (nil keeps the current logger).
func (s *Server) WithLogger(l *slog.Logger) *Server {
	if l != nil {
		s.logger = l
	}
	return s
}

// ServeHTTP implements http.Handler. It assigns a request ID — honoring an
// incoming X-Request-ID so a cluster coordinator's id shows up verbatim in
// every shard's access log and error envelope — applies the body-size cap
// (declared oversize is rejected up front with 413; chunked oversize fails
// mid-read via MaxBytesReader), serves the route, then records per-route
// latency/status metrics and a structured access log line.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqID := sanitizeRequestID(r.Header.Get("X-Request-ID"))
	if reqID == "" {
		reqID = fmt.Sprintf("req-%06d", s.reqID.Add(1))
	}
	w.Header().Set("X-Request-ID", reqID)
	r = r.WithContext(obs.ContextWithRequestID(r.Context(), reqID))
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	_, route := s.mux.Handler(r)
	if route == "" {
		route = "unmatched"
	}
	start := time.Now()
	if r.ContentLength > MaxUploadBytes {
		s.writeJSON(rec, http.StatusRequestEntityTooLarge, errorEnvelope{
			Error:     fmt.Sprintf("request body %d bytes exceeds limit %d", r.ContentLength, int64(MaxUploadBytes)),
			Code:      api.CodeTooLarge,
			RequestID: reqID,
		})
	} else {
		if r.Body != nil {
			r.Body = &limitTrackingBody{rc: http.MaxBytesReader(w, r.Body, MaxUploadBytes), rec: rec}
		}
		s.mux.ServeHTTP(rec, r)
	}
	dur := time.Since(start)
	routeSeconds(route).Observe(dur.Seconds())
	routeStatus(route, rec.status).Inc()
	s.logger.Info("http request",
		"method", r.Method,
		"path", r.URL.Path,
		"status", rec.status,
		"bytes", rec.bytes,
		"duration", dur.Round(time.Microsecond),
		"request_id", reqID,
	)
}

// sanitizeRequestID accepts a caller-supplied request id only when it is
// short and printable — the id is echoed into headers, logs and error
// envelopes, so junk must not pass through.
func sanitizeRequestID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c < 0x21 || c > 0x7e {
			return ""
		}
	}
	return id
}

// edgeTrace builds the trace for a ?trace=1 request; q is the request's
// parsed query string. A valid traceparent header continues the caller's
// trace (same 128-bit trace id, caller's span recorded as the parent) so a
// coordinator can merge shard trees into one tree; otherwise a fresh trace
// id is minted here at the edge.
func edgeTrace(r *http.Request, q url.Values) *mmdb.Trace {
	if q.Get("trace") != "1" {
		return nil
	}
	if trace, parent, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
		return obs.NewTraceWithParent(trace, parent)
	}
	return mmdb.NewTrace()
}

// logQuery emits a wide event for one query request into the process query
// log — always on, whether or not the request was traced. Its Duration runs
// from start to this call, so a success is logged once the response body is
// built (writeAnswer): hydration and encoding are most of a broad query and
// count against the slow-query threshold; the socket write does not.
func logQuery(r *http.Request, start time.Time, kind, strategy, query string, tr *mmdb.Trace, results int, err error) {
	ev := obs.QueryEvent{
		Time:       start,
		RequestID:  obs.RequestIDFromContext(r.Context()),
		Kind:       kind,
		Strategy:   strategy,
		Query:      query,
		Duration:   time.Since(start),
		Results:    results,
		SpanDigest: tr.Root().Digest(),
		Counters:   tr.Counters(),
	}
	if tr != nil {
		ev.TraceIDHex = tr.TraceID().String()
	}
	if err != nil {
		ev.Error = err.Error()
	}
	obs.DefaultQueryLog().Record(ev)
}

// routeSeconds and routeStatus look up (or create) the per-route metrics.
// The registry's get-or-create semantics make the lookups cheap after the
// first request to a route.
func routeSeconds(route string) *obs.Histogram {
	return obs.Default().Histogram(fmt.Sprintf("esidb_http_request_seconds{route=%q}", route), obs.DefBuckets)
}

func routeStatus(route string, status int) *obs.Counter {
	return obs.Default().Counter(fmt.Sprintf("esidb_http_responses_total{route=%q,status=\"%d\"}", route, status))
}

// statusRecorder captures the response status and body size for logging
// and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status   int
	bytes    int64
	limitHit bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// limitTrackingBody notes on the recorder when the body-size cap trips.
// Decoders wrap read errors with %v, which severs the *http.MaxBytesError
// chain before writeError can see it; the flag survives the wrapping so
// oversized chunked uploads still answer 413 rather than 400.
type limitTrackingBody struct {
	rc  io.ReadCloser
	rec *statusRecorder
}

func (b *limitTrackingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		b.rec.limitHit = true
	}
	return n, err
}

func (b *limitTrackingBody) Close() error { return b.rc.Close() }

// toWire renders a catalog entry in its wire form, for the routes that
// answer with one object; an answer or a list is encoded from catalogRow.
// Catalog entries are immutable once published (updates are copy-on-write),
// so the widening flag is pointed at rather than copied.
func toWire(obj *mmdb.Object, withScript bool) api.Object {
	out := api.Object{ID: obj.ID, Kind: obj.Kind.String(), Name: obj.Name}
	if obj.Kind == mmdb.KindBinary {
		out.W, out.H = obj.W, obj.H
		return out
	}
	out.BaseID = obj.Seq.BaseID
	out.Ops = len(obj.Seq.Ops)
	out.Widening = &obj.Widening
	if withScript {
		out.Script = mmdb.FormatSequence(obj.Seq)
	}
	return out
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// answerBufs recycles the buffers query answers are encoded into; an answer
// larger than maxPooledAnswer is let go rather than pinned by the pool.
var answerBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledAnswer = 4 << 20

// writeAnswer hydrates ids and writes them out with internal/api's encoder:
// the answer of /v1/query and /v1/multirange when stats is non-nil, the bare
// object list of /v1/objects when it is nil. The body is the column frame
// when r's Accept asks for it (api.ColumnsMediaType) and JSON otherwise.
// The objects come from one batched catalog read; an id deleted since the
// query chose it is dropped from ids and objects alike, not reported. The
// "hydrate" phase of tr covers the read and the encoding of the objects.
// record, if non-nil, is called with the number of objects once the body is
// complete and before it goes to the socket.
func (s *Server) writeAnswer(w http.ResponseWriter, r *http.Request, ids []uint64, stats *mmdb.QueryStats, tr *mmdb.Trace, record func(results int)) {
	bp := answerBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	defer func() {
		if cap(buf) <= maxPooledAnswer {
			*bp = buf
			answerBufs.Put(bp)
		}
	}()
	done := tr.Phase("hydrate")
	objs := s.db.Objects(ids)
	if len(objs) < len(ids) {
		ids = make([]uint64, len(objs))
		for i, obj := range objs {
			ids[i] = obj.ID
		}
	}
	row := catalogRow(objs)
	columns := wantsColumns(r)
	switch {
	case columns:
		buf = api.AppendColumns(buf, ids, row)
	case stats != nil:
		buf = api.AppendObjects(api.AppendAnswerStart(buf, ids), ids, row)
	default:
		buf = api.AppendObjects(buf, ids, row)
	}
	done()
	var wire *api.AnswerStats
	if stats != nil {
		wire = &api.AnswerStats{BinariesChecked: stats.BinariesChecked, EditedWalked: stats.EditedWalked,
			OpsEvaluated: stats.OpsEvaluated, EditedSkipped: stats.EditedSkipped}
	}
	contentType := "application/json"
	var err error
	switch {
	case columns:
		buf, err = api.AppendColumnsEnd(buf, wire, tr)
		contentType = api.ColumnsMediaType
	case wire != nil:
		buf, err = api.AppendAnswerEnd(buf, *wire, tr)
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	if !columns {
		buf = append(buf, '\n') // as json.Encoder ended every body
	}
	if record != nil {
		record(len(objs))
	}
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(buf)))
	h.Set("Vary", "Accept")
	w.WriteHeader(http.StatusOK)
	w.Write(buf) // a failed write is a client that left; there is no one to tell
}

// catalogRow describes objs[i] to internal/api's encoders, which write it
// as they would write toWire(objs[i], false).
func catalogRow(objs []*mmdb.Object) api.Row {
	return func(i int) (api.Kind, uint64, uint64, string) {
		o := objs[i]
		if o.Kind == mmdb.KindBinary {
			// The catalog stores no binary image without a positive size.
			return api.KindBinary, uint64(o.W), uint64(o.H), o.Name
		}
		kind := api.KindEdited
		if o.Widening {
			kind = api.KindEditedWidening
		}
		return kind, o.Seq.BaseID, uint64(len(o.Seq.Ops)), o.Name
	}
}

// wantsColumns reports whether r's Accept lists the column frame with a
// non-zero quality.
func wantsColumns(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		for accept != "" {
			var part, params, param string
			part, accept, _ = strings.Cut(accept, ",")
			part, params, _ = strings.Cut(part, ";")
			if !strings.EqualFold(strings.TrimSpace(part), api.ColumnsMediaType) {
				continue
			}
			for params != "" {
				param, params, _ = strings.Cut(params, ";")
				if k, v, _ := strings.Cut(strings.TrimSpace(param), "="); strings.EqualFold(k, "q") {
					q, err := strconv.ParseFloat(v, 64)
					return err == nil && q > 0
				}
			}
			return true
		}
	}
	return false
}

// errorEnvelope is the uniform error body every route answers with. Code is
// a stable machine-readable slug; the message is for humans and may change.
type errorEnvelope struct {
	Error     string `json:"error"`
	Code      string `json:"code"`
	RequestID string `json:"request_id"`
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, code := http.StatusInternalServerError, api.CodeInternal
	sr, _ := w.(*statusRecorder)
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe), sr != nil && sr.limitHit:
		status, code = http.StatusRequestEntityTooLarge, api.CodeTooLarge
	case errors.Is(err, catalog.ErrNotFound):
		status, code = http.StatusNotFound, api.CodeNotFound
	case errors.Is(err, catalog.ErrInUse), errors.Is(err, catalog.ErrIDTaken):
		status, code = http.StatusConflict, api.CodeConflict
	case errors.Is(err, mmdb.ErrWALTruncated):
		// The follower's tail cursor fell below the checkpoint floor; it
		// must re-seed from a snapshot. A distinct code lets the client
		// map this back to the sentinel.
		status, code = http.StatusConflict, api.CodeWALTruncated
	case errors.Is(err, mmdb.ErrNoWAL):
		status, code = http.StatusNotFound, api.CodeNoWAL
	case isBadRequest(err):
		status, code = http.StatusBadRequest, api.CodeBadRequest
	}
	s.writeJSON(w, status, errorEnvelope{
		Error:     err.Error(),
		Code:      code,
		RequestID: w.Header().Get("X-Request-ID"),
	})
}

// badRequestError marks client errors.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

func badRequest(format string, a ...any) error {
	return badRequestError{fmt.Errorf(format, a...)}
}

func isBadRequest(err error) bool {
	var b badRequestError
	return errors.As(err, &b)
}

func pathID(r *http.Request) (uint64, error) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		return 0, badRequest("invalid object id %q", r.PathValue("id"))
	}
	return id, nil
}

// idParam reads the optional explicit-id insert parameter; absent means 0
// ("allocate"). Id 0 itself is rejected — it is the reserved null id.
func idParam(r *http.Request) (uint64, error) {
	v := r.URL.Query().Get("id")
	if v == "" {
		return 0, nil
	}
	id, err := strconv.ParseUint(v, 10, 64)
	if err != nil || id == 0 {
		return 0, badRequest("invalid explicit id %q", v)
	}
	return id, nil
}

// decodeImageBody decodes a request body as PNG or PPM, dispatching on the
// Content-Type header; anything that does not look like PNG falls back to
// the PPM decoder, which rejects malformed input with its own error.
func decodeImageBody(r *http.Request) (*mmdb.Image, error) {
	if ct := r.Header.Get("Content-Type"); strings.Contains(ct, "png") {
		return mmdb.DecodePNG(r.Body)
	}
	return mmdb.DecodePPM(r.Body)
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	defer r.Body.Close()
	img, err := decodeImageBody(r)
	if err != nil {
		s.writeError(w, badRequest("decode image: %w", err))
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "unnamed"
	}
	wantID, err := idParam(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	id, err := s.db.InsertImageCtx(r.Context(), name, img, mmdb.WithID(wantID))
	if err != nil {
		s.writeError(w, err)
		return
	}
	obj, err := s.db.Get(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, toWire(obj, false))
}

func (s *Server) handleInsertSequence(w http.ResponseWriter, r *http.Request) {
	defer r.Body.Close()
	seq, err := mmdb.ParseSequence(r.Body)
	if err != nil {
		s.writeError(w, badRequest("parse script: %w", err))
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "edited"
	}
	wantID, err := idParam(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	id, err := s.db.InsertEditedCtx(r.Context(), name, seq, mmdb.WithID(wantID))
	if err != nil {
		s.writeError(w, err)
		return
	}
	obj, err := s.db.Get(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, toWire(obj, true))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.writeAnswer(w, r, append(s.db.Binaries(), s.db.EditedIDs()...), nil, nil, nil)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	obj, err := s.db.Get(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, toWire(obj, true))
}

func (s *Server) handleImage(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	img, err := s.db.Image(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if r.URL.Query().Get("format") == "png" {
		w.Header().Set("Content-Type", "image/png")
		mmdb.EncodePNG(w, img)
		return
	}
	w.Header().Set("Content-Type", "image/x-portable-pixmap")
	mmdb.EncodePPM(w, img)
}

func (s *Server) handleAugment(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	q := r.URL.Query()
	per, err := intParam(q, "per", 3)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ops, err := intParam(q, "ops", 4)
	if err != nil {
		s.writeError(w, err)
		return
	}
	seed, err := intParam(q, "seed", 1)
	if err != nil {
		s.writeError(w, err)
		return
	}
	opts := mmdb.AugmentOptions{PerBase: per, OpsPerImage: ops, Seed: int64(seed)}
	if v := q.Get("nonwidening"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f >= 0 && f <= 1) {
			s.writeError(w, badRequest("nonwidening %q must be in [0,1]", v))
			return
		}
		opts.NonWideningFrac = f
	}
	ids, err := s.db.AugmentCtx(r.Context(), id, opts)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, map[string]any{"base": id, "edited": ids})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if err := s.db.DeleteCtx(r.Context(), id); err != nil {
		s.writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query() // parsed once: each r.URL.Query() parses the string anew
	text := q.Get("q")
	if text == "" {
		s.writeError(w, badRequest("missing q parameter"))
		return
	}
	mode, err := parseMode(q.Get("mode"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	limit, after, err := pageParams(q)
	if err != nil {
		s.writeError(w, err)
		return
	}
	mode = mmdb.ResolveMode(mode, limit) // the query log names the strategy that ran
	tr := edgeTrace(r, q)
	start := time.Now()
	res, err := s.db.QueryCompoundCtx(r.Context(), text, mode, mmdb.WithTrace(tr), mmdb.WithLimit(limit), mmdb.WithAfter(after))
	if err != nil {
		logQuery(r, start, "query", mode.String(), text, tr, 0, err)
		s.writeError(w, badRequest("%v", err))
		return
	}
	ids := res.IDs
	if q.Get("bases") == "1" {
		ids = s.db.ExpandToBases(ids)
	}
	s.writeAnswer(w, r, ids, &res.Stats, tr, func(results int) {
		logQuery(r, start, "query", mode.String(), text, tr, results, nil)
	})
}

// handleMultiRange answers structured multi-range queries. MultiRange has
// no text grammar, so the bins arrive directly as a comma-separated list;
// the cluster coordinator depends on this endpoint to scatter multirange
// queries to HTTP shards.
func (s *Server) handleMultiRange(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var bins []int
	for _, f := range strings.Split(q.Get("bins"), ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		b, err := strconv.Atoi(f)
		if err != nil {
			s.writeError(w, badRequest("invalid bin %q", f))
			return
		}
		bins = append(bins, b)
	}
	if len(bins) == 0 {
		s.writeError(w, badRequest("missing bins parameter"))
		return
	}
	pctMin, pctMax, err := floatRange(q.Get("min"), q.Get("max"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	mode, err := parseMode(q.Get("mode"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	limit, after, err := pageParams(q)
	if err != nil {
		s.writeError(w, err)
		return
	}
	mode = mmdb.ResolveMode(mode, limit)
	tr := edgeTrace(r, q)
	start := time.Now()
	res, err := s.db.RangeQueryMultiCtx(r.Context(), mmdb.MultiRange{Bins: bins, PctMin: pctMin, PctMax: pctMax}, mode, mmdb.WithTrace(tr), mmdb.WithLimit(limit), mmdb.WithAfter(after))
	if err != nil {
		logQuery(r, start, "multirange", mode.String(), q.Get("bins"), tr, 0, err)
		s.writeError(w, badRequest("%v", err))
		return
	}
	s.writeAnswer(w, r, res.IDs, &res.Stats, tr, func(results int) {
		logQuery(r, start, "multirange", mode.String(), q.Get("bins"), tr, results, nil)
	})
}

func floatRange(minStr, maxStr string) (float64, float64, error) {
	pctMin, err := strconv.ParseFloat(minStr, 64)
	if minStr == "" {
		pctMin, err = 0, nil
	}
	if err != nil {
		return 0, 0, badRequest("invalid min %q", minStr)
	}
	pctMax, err := strconv.ParseFloat(maxStr, 64)
	if err != nil {
		return 0, 0, badRequest("invalid max %q", maxStr)
	}
	return pctMin, pctMax, nil
}

// handleExplain returns the static query plan; with trace=1 it also
// executes the query (in the requested mode) and returns the measured
// trace next to the prediction as {"plan": ..., "trace": ...}.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	text := r.URL.Query().Get("q")
	if text == "" {
		s.writeError(w, badRequest("missing q parameter"))
		return
	}
	plan, err := s.db.Explain(text)
	if err != nil {
		s.writeError(w, badRequest("%v", err))
		return
	}
	if r.URL.Query().Get("trace") != "1" {
		s.writeJSON(w, http.StatusOK, plan)
		return
	}
	mode, err := parseMode(r.URL.Query().Get("mode"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	tr := mmdb.NewTrace()
	if _, err := s.db.QueryCompoundCtx(r.Context(), text, mode, mmdb.WithTrace(tr)); err != nil {
		s.writeError(w, badRequest("%v", err))
		return
	}
	s.writeJSON(w, http.StatusOK, struct {
		Plan  *mmdb.Plan  `json:"plan"`
		Trace *mmdb.Trace `json:"trace"`
	}{plan, tr})
}

func (s *Server) handleSimilar(w http.ResponseWriter, r *http.Request) {
	defer r.Body.Close()
	img, err := decodeImageBody(r)
	if err != nil {
		s.writeError(w, badRequest("decode probe: %w", err))
		return
	}
	q := r.URL.Query()
	k, err := intParam(q, "k", 5)
	if err == nil && k <= 0 {
		err = badRequest("k must be positive, got %d", k)
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	metric, err := parseMetric(q.Get("metric"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	tr := edgeTrace(r, q)
	start := time.Now()
	matches, st, err := s.db.QueryByExampleCtx(r.Context(), img, k, metric, mmdb.WithTrace(tr))
	if err != nil {
		logQuery(r, start, "similar", q.Get("metric"), fmt.Sprintf("k=%d", k), tr, 0, err)
		s.writeError(w, err)
		return
	}
	type matchJSON struct {
		ID   uint64  `json:"id"`
		Dist float64 `json:"dist"`
	}
	out := struct {
		Matches []matchJSON `json:"matches"`
		Pruned  int         `json:"edited_pruned"`
		Trace   *mmdb.Trace `json:"trace,omitempty"`
	}{Pruned: st.EditedPruned, Trace: tr}
	for _, m := range matches {
		out.Matches = append(out.Matches, matchJSON{ID: m.ID, Dist: m.Dist})
	}
	logQuery(r, start, "similar", q.Get("metric"), fmt.Sprintf("k=%d", k), tr, len(matches), nil)
	s.writeJSON(w, http.StatusOK, out)
}

// handleHealthz is the liveness probe: it answers 200 while the database
// is open. The cluster health checker polls it to flip shards between
// up/suspect/down.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if _, err := s.db.Stats(); err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.db.Stats()
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

// handleQueryLog exposes the process slow-query log: the N slowest queries
// since start plus a head/tail-sampled stream of recent wide events.
// ?threshold=<duration> retunes the slowness cutoff at runtime (e.g.
// ?threshold=250ms; 0 disables the latency filter so every event competes
// by duration only).
func (s *Server) handleQueryLog(w http.ResponseWriter, r *http.Request) {
	if v := r.URL.Query().Get("threshold"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			s.writeError(w, badRequest("invalid threshold %q", v))
			return
		}
		obs.DefaultQueryLog().SetThreshold(d)
	}
	s.writeJSON(w, http.StatusOK, obs.DefaultQueryLog().Snapshot())
}

// handleMetrics exposes the process metrics registry. Default is the
// Prometheus text format (0.0.4); ?format=json returns the same registry
// as a JSON document. Database-shape gauges are refreshed at scrape time.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.publishGauges()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		obs.Default().WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.Default().WritePrometheus(w)
}

// publishGauges snapshots database shape into gauges so scrapes see
// current sizes alongside the monotonic counters.
func (s *Server) publishGauges() {
	reg := obs.Default()
	if st, err := s.db.Stats(); err == nil {
		reg.Gauge("esidb_objects_binary").Set(float64(st.Catalog.Binaries))
		reg.Gauge("esidb_objects_edited").Set(float64(st.Catalog.Edited))
		reg.Gauge("esidb_objects_widening_only").Set(float64(st.Catalog.WideningOnly))
	}
	if seg, ok := s.db.SegmentStats(); ok {
		// Same gauge names the engine maintains on seal/compact — scrape
		// time refresh also covers the memtable, which changes per write.
		reg.Gauge("esidb_segment_count").Set(float64(seg.Segments))
		reg.Gauge("esidb_segment_live_bytes").Set(float64(seg.LiveBytes))
		reg.Gauge("esidb_segment_dead_bytes_estimate").Set(float64(seg.DeadBytesEstimate))
		reg.Gauge("esidb_segment_compaction_backlog").Set(float64(seg.CompactionBacklog))
		reg.Gauge("esidb_segment_memtable_entries").Set(float64(seg.MemtableEntries))
		reg.Gauge("esidb_segment_memtable_bytes").Set(float64(seg.MemtableBytes))
	}
}

// handleWALStats reports write-ahead-log activity; in-memory databases
// (which have no log) answer {"enabled": false}.
func (s *Server) handleWALStats(w http.ResponseWriter, r *http.Request) {
	st, ok := s.db.WALStats()
	s.writeJSON(w, http.StatusOK, struct {
		Enabled bool           `json:"enabled"`
		Stats   *mmdb.WALStats `json:"stats,omitempty"`
	}{Enabled: ok, Stats: ptrIf(ok, st)})
}

// ptrIf returns &v when ok, else nil — keeps optional JSON fields omitted.
func ptrIf[T any](ok bool, v T) *T {
	if !ok {
		return nil
	}
	return &v
}

// handleCheckpoint forces a durability checkpoint: catalog and store are
// persisted and the write-ahead log truncated.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if err := s.db.WALCheckpoint(); err != nil {
		s.writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if err := s.db.Compact(); err != nil {
		s.writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// parseMode delegates to the core mode registry, so a mode added there is
// immediately reachable over the wire; the error enumerates every valid
// name.
func parseMode(s string) (mmdb.Mode, error) {
	m, err := mmdb.ParseMode(s)
	if err != nil {
		return 0, badRequest("unknown mode %q (valid: %s)", s, strings.Join(mmdb.ModeNames(), ", "))
	}
	return m, nil
}

// pageParams reads the optional paging parameters: ?limit= (0 = unlimited)
// and the ?after= keyset cursor (0 = from the start).
func pageParams(q url.Values) (limit int, after uint64, err error) {
	if s := q.Get("limit"); s != "" {
		if limit, err = strconv.Atoi(s); err != nil || limit < 0 {
			return 0, 0, badRequest("invalid limit %q", s)
		}
	}
	if s := q.Get("after"); s != "" {
		if after, err = strconv.ParseUint(s, 10, 64); err != nil {
			return 0, 0, badRequest("invalid after %q", s)
		}
	}
	return limit, after, nil
}

func parseMetric(s string) (mmdb.Metric, error) {
	switch s {
	case "", "l1":
		return mmdb.MetricL1, nil
	case "l2":
		return mmdb.MetricL2, nil
	case "intersection":
		return mmdb.MetricIntersection, nil
	default:
		return 0, badRequest("unknown metric %q", s)
	}
}

// intParam reads an optional integer query parameter: absent means def,
// and a present value that is not an integer is a bad request.
func intParam(q url.Values, name string, def int) (int, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, badRequest("invalid %s %q", name, s)
	}
	return v, nil
}
