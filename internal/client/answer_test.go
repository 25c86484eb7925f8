package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	mmdb "repro"
	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/server"
)

// TestImageCarriesTraceContext: GET /v1/objects/{id}/image goes through the
// same request builder as every other call, so the caller's span and request
// id reach the server. ImageCtx used to build its own request and drop both.
func TestImageCarriesTraceContext(t *testing.T) {
	db, err := mmdb.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	id, err := db.InsertImageCtx(context.Background(), "b", mmdb.NewFilledImage(4, 4, dataset.Blue))
	if err != nil {
		t.Fatal(err)
	}
	var seen http.Header
	inner := server.New(db)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/image") {
			seen = r.Header.Clone()
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	sp := obs.NewRootSpan("caller")
	ctx := obs.ContextWithRequestID(obs.ContextWithSpan(context.Background(), sp), "req-image-1")
	img, err := New(ts.URL, ts.Client()).ImageCtx(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if img.W != 4 || img.H != 4 {
		t.Fatalf("image %dx%d", img.W, img.H)
	}
	if got := seen.Get("traceparent"); got != sp.Traceparent() {
		t.Errorf("traceparent %q, want %q", got, sp.Traceparent())
	}
	if got := seen.Get("X-Request-ID"); got != "req-image-1" {
		t.Errorf("X-Request-ID %q, want req-image-1", got)
	}
}

// TestAnswerBodyFraming: a query answer decodes the same whether the peer
// declares its length (the server), streams it in chunks (a proxy), or
// re-serialises it with white space and members this client does not know,
// in either shape; which shape is read is the response's Content-Type's
// choice, and a query asks for the column frame.
func TestAnswerBodyFraming(t *testing.T) {
	ctx := context.Background()
	const body = `{"ids":[7,9],"objects":[{"id":7,"kind":"binary","name":"b","width":4,"height":4},` +
		`{"id":9,"kind":"edited","name":"e","base_id":7,"ops":2,"widening":false}],` +
		`"stats":{"binaries_checked":1,"edited_walked":1,"ops_evaluated":2,"edited_skipped":0}}` + "\n"
	var want api.Answer
	if err := json.Unmarshal([]byte(body), &want); err != nil {
		t.Fatal(err)
	}
	frame, err := api.AppendColumnsEnd(api.AppendColumns(nil, want.IDs, func(i int) (api.Kind, uint64, uint64, string) {
		o := want.Objects[i] // a binary image and a non-widening edit of it
		if o.Kind == "edited" {
			return api.KindEdited, o.BaseID, uint64(o.Ops), o.Name
		}
		return api.KindBinary, uint64(o.W), uint64(o.H), o.Name
	}), &want.Stats, nil)
	if err != nil {
		t.Fatal(err)
	}
	columns := string(frame)
	declared := func(b string) func(w http.ResponseWriter) {
		return func(w http.ResponseWriter) { io.WriteString(w, b) }
	}
	chunked := func(b string) func(w http.ResponseWriter) {
		return func(w http.ResponseWriter) {
			for _, half := range []string{b[:len(b)/2], b[len(b)/2:]} {
				io.WriteString(w, half)
				w.(http.Flusher).Flush()
			}
		}
	}
	var results []*QueryResult
	for _, tc := range []struct {
		name, contentType string
		write             func(w http.ResponseWriter)
	}{
		{"declared length", "", declared(body)},
		{"chunked", "", chunked(body)},
		{"re-serialised", "application/json", declared(strings.Replace(strings.ReplaceAll(body, ",", " ,\n "), "{", `{ "took_ms" : 3 , `, 1))},
		{"columns, declared length", api.ColumnsMediaType, declared(columns)},
		{"columns, chunked", api.ColumnsMediaType + "; charset=binary", chunked(columns)},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if got := r.Header.Get("Accept"); got != api.ColumnsMediaType {
				t.Errorf("%s: the query asked with Accept %q", tc.name, got)
			}
			if tc.contentType != "" {
				w.Header().Set("Content-Type", tc.contentType)
			}
			tc.write(w)
		}))
		res, err := New(ts.URL, ts.Client()).QueryCtx(ctx, "at least 50% blue", "", false)
		ts.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		results = append(results, res)
	}
	// Checked after every body was read: an answer owns its strings, whatever
	// became of the buffer it was decoded from.
	for _, res := range results {
		if res.Objects[0].Name != "b" || res.Objects[0].Kind != "binary" || res.Objects[1].Name != "e" {
			t.Fatalf("answer changed after later reads: %+v", res.Objects)
		}
		if !reflect.DeepEqual(*res, want) || res.Objects[1].Widening == nil || *res.Objects[1].Widening || res.Stats.OpsEvaluated != 2 {
			t.Fatalf("decoded %+v", res)
		}
	}

	// A body cut short or followed by anything is an error, not an answer.
	for _, bad := range []struct{ contentType, body string }{
		{"", body[:len(body)/2]},
		{"", body + "{}"},
		{api.ColumnsMediaType, columns[:len(columns)/2]},
		{api.ColumnsMediaType, columns + "\x00"},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if bad.contentType != "" {
				w.Header().Set("Content-Type", bad.contentType)
			}
			io.WriteString(w, bad.body)
		}))
		_, err := New(ts.URL, ts.Client()).QueryCtx(ctx, "at least 50% blue", "", false)
		ts.Close()
		if err == nil {
			t.Fatalf("body %q (%s) decoded without error", bad.body, bad.contentType)
		}
	}
}

// frameCounter counts the responses whose headers name the column frame.
type frameCounter struct {
	http.ResponseWriter
	n *atomic.Int32
}

func (w frameCounter) WriteHeader(code int) {
	if w.Header().Get("Content-Type") == api.ColumnsMediaType {
		w.n.Add(1)
	}
	w.ResponseWriter.WriteHeader(code)
}

// TestJSONOnlyPeer: a server that ignores Accept and answers JSON — one
// older than the column frame, or a proxy that strips the header — is read
// by encoding/json, to the same answers and lists the frame carries.
func TestJSONOnlyPeer(t *testing.T) {
	ctx := context.Background()
	db, err := mmdb.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	base, err := db.InsertImageCtx(ctx, "b", mmdb.NewFilledImage(4, 4, dataset.Blue))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.InsertEditedCtx(ctx, "e", &mmdb.Sequence{BaseID: base, Ops: []mmdb.Op{mmdb.Modify{}}}); err != nil {
			t.Fatal(err)
		}
	}
	inner := server.New(db)
	var frames atomic.Int32 // counted before the body is written, so before the client returns
	both := map[bool]*httptest.Server{}
	for _, jsonOnly := range []bool{false, true} {
		both[jsonOnly] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if jsonOnly {
				r.Header.Del("Accept")
			}
			inner.ServeHTTP(frameCounter{w, &frames}, r)
		}))
		defer both[jsonOnly].Close()
	}
	type read struct {
		query, multi *QueryResult
		list         []Object
	}
	reads := map[bool]read{}
	for jsonOnly, ts := range both {
		c := New(ts.URL, ts.Client())
		var r read
		var err1, err2, err3 error
		r.query, err1 = c.QueryCtx(ctx, "at least 50% blue", "indexed", false)
		r.multi, err2 = c.MultiRangeCtx(ctx, []int{0, 1, 2, 3}, 0, 1, "", Limit(2))
		r.list, err3 = c.ListCtx(ctx)
		if err := errors.Join(err1, err2, err3); err != nil {
			t.Fatalf("JSON-only %v: %v", jsonOnly, err)
		}
		reads[jsonOnly] = r
	}
	if len(reads[false].query.Objects) != 4 || len(reads[false].list) != 4 || len(reads[false].multi.IDs) != 2 {
		t.Fatalf("read %+v", reads[false])
	}
	if !reflect.DeepEqual(reads[false], reads[true]) {
		t.Fatalf("the frame read %+v, JSON %+v", reads[false], reads[true])
	}
	if n := frames.Load(); n != 3 {
		t.Fatalf("%d of the responses were column frames, want 3", n)
	}

	// A JSON answer read into a used result keeps nothing of it: not the
	// ids, objects or trace of a traced answer that the empty, untraced
	// one leaves out.
	c := New(both[true].URL, both[true].Client())
	used, err := c.QueryCtx(obs.ContextWithSpan(ctx, obs.NewRootSpan("caller")), "at least 50% blue", "indexed", false)
	if err != nil || used.Trace == nil || len(used.IDs) != 4 {
		t.Fatalf("traced query: %+v, %v", used, err)
	}
	const none = "/v1/query?q=at+least+50%25+red"
	if err := c.doCtx(ctx, "GET", none, nil, "", used); err != nil {
		t.Fatal(err)
	}
	var fresh QueryResult
	if err := c.doCtx(ctx, "GET", none, nil, "", &fresh); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*used, fresh) || len(fresh.IDs) != 0 || fresh.Trace != nil {
		t.Fatalf("read into a used result: %+v, into a fresh one: %+v", used, fresh)
	}
}

// TestDecodeBodyDoesNotTrustContentLength: the buffer is sized from the
// declared length only up to maxBodyPrealloc.
func TestDecodeBodyDoesNotTrustContentLength(t *testing.T) {
	resp := &http.Response{ContentLength: 1 << 40, Body: io.NopCloser(strings.NewReader("[]"))}
	err := decodeBody(resp, func(body []byte) error {
		if string(body) != "[]" {
			t.Errorf("body %q", body)
		}
		if cap(body) > 2*maxBodyPrealloc {
			t.Errorf("allocated %d bytes for a peer claiming %d", cap(body), resp.ContentLength)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
