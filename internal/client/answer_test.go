package client

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	mmdb "repro"
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
	id, err := db.InsertImage("b", mmdb.NewFilledImage(4, 4, dataset.Blue))
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
// re-serialises it with white space and members this client does not know.
func TestAnswerBodyFraming(t *testing.T) {
	const body = `{"ids":[7,9],"objects":[{"id":7,"kind":"binary","name":"b","width":4,"height":4},` +
		`{"id":9,"kind":"edited","name":"e","base_id":7,"ops":2,"widening":false}],` +
		`"stats":{"binaries_checked":1,"edited_walked":1,"ops_evaluated":2,"edited_skipped":0}}` + "\n"
	var results []*QueryResult
	for _, tc := range []struct {
		name  string
		write func(w http.ResponseWriter)
	}{
		{"declared length", func(w http.ResponseWriter) { io.WriteString(w, body) }},
		{"chunked", func(w http.ResponseWriter) {
			for _, half := range []string{body[:40], body[40:]} {
				io.WriteString(w, half)
				w.(http.Flusher).Flush()
			}
		}},
		{"re-serialised", func(w http.ResponseWriter) {
			io.WriteString(w, strings.Replace(strings.ReplaceAll(body, ",", " ,\n "), "{", `{ "took_ms" : 3 , `, 1))
		}},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { tc.write(w) }))
		res, err := New(ts.URL, ts.Client()).Query("at least 50% blue", "", false)
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
		if len(res.IDs) != 2 || len(res.Objects) != 2 || res.Objects[1].BaseID != 7 ||
			res.Objects[1].Widening == nil || *res.Objects[1].Widening || res.Stats.OpsEvaluated != 2 {
			t.Fatalf("decoded %+v", res)
		}
	}

	// A body cut short or followed by anything is an error, not an answer.
	for _, bad := range []string{body[:len(body)/2], body + "{}"} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, bad) }))
		_, err := New(ts.URL, ts.Client()).Query("at least 50% blue", "", false)
		ts.Close()
		if err == nil {
			t.Fatalf("body %q decoded without error", bad)
		}
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
