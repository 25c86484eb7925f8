package client

import (
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"runtime/debug"
	"testing"

	mmdb "repro"
	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/server"
)

// TestV1AnswerAllocs budgets a /v1 answer's allocations end to end: the
// server handler in both shapes, from request to written body (query,
// hydration, encoding, access log), and the client's decode of the column
// frame. Two queries over 250 flags and 1 000 scripts of them: a broad
// indexed one with no limit, and a page of 20 of the same text. Each budget
// is what the test reads; the column decode makes a fixed number of
// allocations whatever the number of objects. A JSON answer is decoded by
// encoding/json, which is not budgeted here.
//
// Where the handler's allocations come from, per request (a profile at
// MemProfileRate 1, the same in both shapes; broad / page):
//
//   - 5 / 5    net/url.ParseQuery: handleQuery parses the query string
//     once and passes the url.Values to every parameter it reads;
//   - 20 / 20  the middleware: request id and its context, body limit,
//     route metric labels (fmt.Sprintf), access log, response headers;
//   - 6 / 6    the handler's query options and the parsed query text;
//   - 9 / 17   core's evaluation: the S-tree descent's terms and answer
//     for the broad query, the paged scan's state and verdicts for a page;
//   - 1 / 1    hydration: the []*Object of catalog.Objects. The encoders
//     write into a pooled buffer and take each object as scalars from a
//     row callback (api.Row), so encoding makes none per object;
//   - 7 / 7    writing the response: three header values, and what
//     httptest's recorder makes of the header and the body;
//   - ≈ 4 more: httptest.NewRecorder, and pooled buffers refilled.
func TestV1AnswerAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's sync.Pool drops scratch on purpose")
	}
	ctx := context.Background()
	db, err := mmdb.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	flags := dataset.Flags(250, 48, 32, 1)
	aug := dataset.NewAugmenter(dataset.AugmentConfig{PerBase: 4, OpsPerImage: 5, NonWideningFrac: 0.3, Seed: 1})
	var ids []uint64
	for _, f := range flags {
		id, err := db.InsertImageCtx(ctx, f.Name, f.Img)
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range aug.ScriptsFor(id, f.Img, ids) {
			if _, err := db.InsertEditedCtx(ctx, f.Name+"-edit", seq); err != nil {
				t.Fatal(err)
			}
		}
		ids = append(ids, id)
	}
	srv := server.New(db).WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	// A collection in the middle of a measurement empties the pools the
	// handler and the client draw their buffers from, which would count
	// their refill against the answer.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	columnDecodes := map[string]float64{}
	for _, tc := range []struct {
		name, path     string
		minObjects     int
		server, decode float64
	}{
		{"broad", "/v1/query?q=at+least+5%25+white&mode=indexed", 1000, 53, 5},
		{"page", "/v1/query?q=at+least+5%25+white&limit=20", 20, 61, 5},
	} {
		for _, columns := range []bool{false, true} {
			r := httptest.NewRequest("GET", tc.path, nil)
			if columns {
				r.Header.Set("Accept", api.ColumnsMediaType)
			}
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, r)
			body := w.Body.Bytes()
			var out QueryResult
			if err := decodeAnswer(isColumns(w.Header().Get("Content-Type")), body, &out); err != nil || len(out.Objects) < tc.minObjects {
				t.Fatalf("%s, columns %v: %d objects (%v)", tc.name, columns, len(out.Objects), err)
			}
			served := testing.AllocsPerRun(20, func() {
				srv.ServeHTTP(httptest.NewRecorder(), r)
			})
			t.Logf("%s, columns %v: %d objects, %d bytes: server %.1f allocations", tc.name, columns, len(out.Objects), len(body), served)
			if served > tc.server {
				t.Errorf("%s, columns %v: the handler made %.1f allocations, budget %.0f", tc.name, columns, served, tc.server)
			}
			if !columns {
				continue
			}
			decoded := testing.AllocsPerRun(20, func() {
				var out QueryResult
				decodeAnswer(true, body, &out)
			})
			t.Logf("%s: the column decode made %.1f allocations", tc.name, decoded)
			if decoded > tc.decode {
				t.Errorf("%s: the column decode made %.1f allocations, budget %.0f", tc.name, decoded, tc.decode)
			}
			columnDecodes[tc.name] = decoded
		}
	}
	if columnDecodes["broad"] > columnDecodes["page"] {
		t.Errorf("the column decode of %d objects makes %.1f allocations, of 20 %.1f: it grows with the answer",
			1000, columnDecodes["broad"], columnDecodes["page"])
	}
}
