package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	mmdb "repro"
	"repro/internal/dataset"
	"repro/internal/obs"
)

func newTestServer(t *testing.T) (*httptest.Server, *mmdb.DB) {
	t.Helper()
	db, err := mmdb.Open()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db))
	t.Cleanup(func() {
		ts.Close()
		db.Close()
	})
	return ts, db
}

func ppmBody(t *testing.T, img *mmdb.Image) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := mmdb.EncodePPM(&buf, img); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func doJSON(t *testing.T, method, url string, body io.Reader, contentType string, want int, out any) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, want, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, raw, err)
		}
	}
}

func TestInsertListGetDelete(t *testing.T) {
	ts, _ := newTestServer(t)
	img := mmdb.NewFilledImage(8, 8, dataset.Blue)

	var created struct {
		ID   uint64 `json:"id"`
		Kind string `json:"kind"`
		W    int    `json:"width"`
	}
	doJSON(t, "POST", ts.URL+"/v1/objects?name=bluey", ppmBody(t, img), "image/x-portable-pixmap", http.StatusCreated, &created)
	if created.Kind != "binary" || created.W != 8 {
		t.Fatalf("created %+v", created)
	}

	var list []map[string]any
	doJSON(t, "GET", ts.URL+"/v1/objects", nil, "", http.StatusOK, &list)
	if len(list) != 1 || list[0]["name"] != "bluey" {
		t.Fatalf("list %v", list)
	}

	var got map[string]any
	doJSON(t, "GET", fmt.Sprintf("%s/v1/objects/%d", ts.URL, created.ID), nil, "", http.StatusOK, &got)
	if got["kind"] != "binary" {
		t.Fatalf("get %v", got)
	}

	doJSON(t, "DELETE", fmt.Sprintf("%s/v1/objects/%d", ts.URL, created.ID), nil, "", http.StatusNoContent, nil)
	doJSON(t, "GET", fmt.Sprintf("%s/v1/objects/%d", ts.URL, created.ID), nil, "", http.StatusNotFound, nil)
}

func TestInsertPNG(t *testing.T) {
	ts, _ := newTestServer(t)
	var buf bytes.Buffer
	if err := mmdb.EncodePNG(&buf, mmdb.NewFilledImage(4, 4, dataset.Red)); err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID uint64 `json:"id"`
	}
	doJSON(t, "POST", ts.URL+"/v1/objects", &buf, "image/png", http.StatusCreated, &created)
	if created.ID == 0 {
		t.Fatal("no id")
	}
}

func TestInsertGarbageIs400(t *testing.T) {
	ts, _ := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/v1/objects", strings.NewReader("not an image"), "image/x-portable-pixmap", http.StatusBadRequest, nil)
}

func TestSequenceAndQueryFlow(t *testing.T) {
	ts, _ := newTestServer(t)
	var base struct {
		ID uint64 `json:"id"`
	}
	doJSON(t, "POST", ts.URL+"/v1/objects?name=base", ppmBody(t, mmdb.NewFilledImage(10, 10, dataset.Blue)), "", http.StatusCreated, &base)

	script := fmt.Sprintf("base %d\ndefine 0 0 10 10\nmodify #0033cc #cc0000\n", base.ID)
	var edited struct {
		ID       uint64 `json:"id"`
		BaseID   uint64 `json:"base_id"`
		Widening *bool  `json:"widening"`
		Script   string `json:"script"`
	}
	doJSON(t, "POST", ts.URL+"/v1/sequences?name=red-version", strings.NewReader(script), "text/plain", http.StatusCreated, &edited)
	if edited.BaseID != base.ID || edited.Widening == nil || !*edited.Widening {
		t.Fatalf("edited %+v", edited)
	}
	if !strings.Contains(edited.Script, "modify") {
		t.Fatalf("script not echoed: %q", edited.Script)
	}

	var qres struct {
		IDs   []uint64 `json:"ids"`
		Stats struct {
			EditedSkipped int `json:"edited_skipped"`
		} `json:"stats"`
	}
	doJSON(t, "GET", ts.URL+"/v1/query?q=at+least+50%25+red&mode=bwm", nil, "", http.StatusOK, &qres)
	if len(qres.IDs) != 1 || qres.IDs[0] != edited.ID {
		t.Fatalf("query ids %v", qres.IDs)
	}
	// With bases expansion both objects come back.
	doJSON(t, "GET", ts.URL+"/v1/query?q=at+least+50%25+red&bases=1", nil, "", http.StatusOK, &qres)
	if len(qres.IDs) != 2 {
		t.Fatalf("expanded ids %v", qres.IDs)
	}
	// Compound query.
	doJSON(t, "GET", ts.URL+"/v1/query?q="+
		"at+least+50%25+red+or+at+least+50%25+blue", nil, "", http.StatusOK, &qres)
	if len(qres.IDs) != 2 {
		t.Fatalf("compound ids %v", qres.IDs)
	}
	// Bad query text.
	doJSON(t, "GET", ts.URL+"/v1/query?q=gibberish", nil, "", http.StatusBadRequest, nil)
	doJSON(t, "GET", ts.URL+"/v1/query", nil, "", http.StatusBadRequest, nil)
	doJSON(t, "GET", ts.URL+"/v1/query?q=at+least+5%25+red&mode=nope", nil, "", http.StatusBadRequest, nil)
}

func TestAugmentEndpoint(t *testing.T) {
	ts, db := newTestServer(t)
	var base struct {
		ID uint64 `json:"id"`
	}
	doJSON(t, "POST", ts.URL+"/v1/objects", ppmBody(t, dataset.Flags(1, 24, 16, 1)[0].Img), "", http.StatusCreated, &base)
	var out struct {
		Base   uint64   `json:"base"`
		Edited []uint64 `json:"edited"`
	}
	doJSON(t, "POST", fmt.Sprintf("%s/v1/objects/%d/augment?per=4&seed=2", ts.URL, base.ID), nil, "", http.StatusCreated, &out)
	if len(out.Edited) != 4 {
		t.Fatalf("augment %v", out)
	}
	if len(db.EditedIDs()) != 4 {
		t.Fatal("augment not visible in db")
	}
	doJSON(t, "POST", fmt.Sprintf("%s/v1/objects/%d/augment?nonwidening=2", ts.URL, base.ID), nil, "", http.StatusBadRequest, nil)
	doJSON(t, "POST", fmt.Sprintf("%s/v1/objects/%d/augment?nonwidening=NaN", ts.URL, base.ID), nil, "", http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/v1/objects/999/augment", nil, "", http.StatusNotFound, nil)
}

func TestImageEndpointInstantiates(t *testing.T) {
	ctx := context.Background()
	ts, db := newTestServer(t)
	baseID, _ := db.InsertImageCtx(ctx, "b", mmdb.NewFilledImage(6, 6, dataset.Blue))
	eid, _ := db.InsertEditedCtx(ctx, "e", &mmdb.Sequence{BaseID: baseID, Ops: mmdb.CropTo(mmdb.R(0, 0, 3, 2))})

	resp, err := http.Get(fmt.Sprintf("%s/v1/objects/%d/image", ts.URL, eid))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "image/x-portable-pixmap" {
		t.Fatalf("content type %q", ct)
	}
	img, err := mmdb.DecodePPM(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if img.W != 3 || img.H != 2 {
		t.Fatalf("instantiated %dx%d", img.W, img.H)
	}
	// PNG format variant.
	resp2, err := http.Get(fmt.Sprintf("%s/v1/objects/%d/image?format=png", ts.URL, baseID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "image/png" {
		t.Fatalf("png content type %q", ct)
	}
	if _, err := mmdb.DecodePNG(resp2.Body); err != nil {
		t.Fatal(err)
	}
}

func TestSimilarEndpoint(t *testing.T) {
	ctx := context.Background()
	ts, db := newTestServer(t)
	blueID, _ := db.InsertImageCtx(ctx, "blue", mmdb.NewFilledImage(8, 8, dataset.Blue))
	db.InsertImageCtx(ctx, "red", mmdb.NewFilledImage(8, 8, dataset.Red))

	var out struct {
		Matches []struct {
			ID   uint64  `json:"id"`
			Dist float64 `json:"dist"`
		} `json:"matches"`
	}
	doJSON(t, "POST", ts.URL+"/v1/similar?k=1&metric=l2",
		ppmBody(t, mmdb.NewFilledImage(8, 8, dataset.Blue)), "", http.StatusOK, &out)
	if len(out.Matches) != 1 || out.Matches[0].ID != blueID || out.Matches[0].Dist != 0 {
		t.Fatalf("similar %+v", out)
	}
	doJSON(t, "POST", ts.URL+"/v1/similar?metric=nope", ppmBody(t, mmdb.NewFilledImage(2, 2, dataset.Red)), "", http.StatusBadRequest, nil)
}

func TestStatsAndConflictDelete(t *testing.T) {
	ctx := context.Background()
	ts, db := newTestServer(t)
	baseID, _ := db.InsertImageCtx(ctx, "b", mmdb.NewFilledImage(6, 6, dataset.Blue))
	db.InsertEditedCtx(ctx, "e", &mmdb.Sequence{BaseID: baseID, Ops: []mmdb.Op{mmdb.Modify{}}})

	var st map[string]any
	doJSON(t, "GET", ts.URL+"/v1/stats", nil, "", http.StatusOK, &st)
	if st["Catalog"] == nil {
		t.Fatalf("stats %v", st)
	}
	// Deleting the base while the edited version exists is a conflict.
	doJSON(t, "DELETE", fmt.Sprintf("%s/v1/objects/%d", ts.URL, baseID), nil, "", http.StatusConflict, nil)
	// Bad id in the path.
	doJSON(t, "DELETE", ts.URL+"/v1/objects/banana", nil, "", http.StatusBadRequest, nil)
}

func TestCompactEndpointOnMemoryDB(t *testing.T) {
	ts, _ := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/v1/compact", nil, "", http.StatusNoContent, nil)
}

func TestUploadSizeLimit(t *testing.T) {
	ts, _ := newTestServer(t)
	// A body larger than the cap: stream zeros with a huge Content-Length.
	req, err := http.NewRequest("POST", ts.URL+"/v1/objects",
		io.LimitReader(zeroReader{}, MaxUploadBytes+1024))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = MaxUploadBytes + 1024
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload status %d, want 413", resp.StatusCode)
	}
}

// Chunked uploads carry no Content-Length, so the cap only trips mid-read
// inside the decoder; the error must still surface as 413, not 400. The
// body is a valid P6 header whose raster (6000×6000×3 ≈ 108MB) forces the
// decoder past the cap.
func TestUploadSizeLimitChunked(t *testing.T) {
	ts, _ := newTestServer(t)
	header := strings.NewReader("P6\n6000 6000\n255\n")
	body := io.MultiReader(header, io.LimitReader(zeroReader{}, MaxUploadBytes+1024))
	req, err := http.NewRequest("POST", ts.URL+"/v1/objects", body)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1 // force chunked transfer encoding
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked oversized upload status %d, want 413", resp.StatusCode)
	}
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

func TestRequestLogging(t *testing.T) {
	db, err := mmdb.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	srv := New(db).WithLogger(logger)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("no X-Request-ID header")
	}
	if _, err := http.Get(ts.URL + "/v1/objects/999"); err != nil {
		t.Fatal(err)
	}
	// The access line is written after the handler's last byte, which a
	// client can have read already; Close waits for the handlers to return.
	ts.Close()
	line := buf.String()
	for _, want := range []string{"method=GET", "path=/v1/stats", "status=200", "request_id=req-"} {
		if !strings.Contains(line, want) {
			t.Fatalf("log output %q missing %q", line, want)
		}
	}
	if !strings.Contains(line, "path=/v1/objects/999") || !strings.Contains(line, "status=404") {
		t.Fatalf("log output %q missing 404 line", line)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, db := newTestServer(t)
	db.InsertImageCtx(context.Background(), "b", mmdb.NewFilledImage(4, 4, dataset.Blue))
	// Run one query so the query-engine counters exist.
	if _, err := http.Get(ts.URL + "/v1/query?q=at+least+50%25+blue"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		"# TYPE esidb_http_request_seconds histogram",
		`esidb_http_request_seconds_bucket{route="GET /v1/query",le="+Inf"}`,
		`esidb_http_responses_total{route="GET /v1/query",status="200"}`,
		`esidb_queries_total{mode="bwm"}`,
		"esidb_objects_binary 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q in:\n%s", want, text)
		}
	}

	// JSON variant round-trips through encoding/json.
	resp2, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var doc struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count uint64 `json:"count"`
		} `json:"histograms"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Counters[`esidb_http_responses_total{route="GET /v1/query",status="200"}`] < 1 {
		t.Fatalf("json counters %v", doc.Counters)
	}
	if doc.Histograms[`esidb_http_request_seconds{route="GET /v1/query"}`].Count < 1 {
		t.Fatalf("json histograms missing query route")
	}
}

func TestQueryTrace(t *testing.T) {
	ctx := context.Background()
	ts, db := newTestServer(t)
	baseID, _ := db.InsertImageCtx(ctx, "b", mmdb.NewFilledImage(8, 8, dataset.Blue))
	db.InsertEditedCtx(ctx, "e", &mmdb.Sequence{BaseID: baseID, Ops: []mmdb.Op{mmdb.Modify{}}})

	var resp struct {
		IDs   []uint64 `json:"ids"`
		Trace *struct {
			Phases []struct {
				Name       string  `json:"name"`
				DurationUS float64 `json:"duration_us"`
				Fraction   float64 `json:"fraction"`
			} `json:"phases"`
			Counters map[string]int64 `json:"counters"`
		} `json:"trace"`
	}
	doJSON(t, "GET", ts.URL+"/v1/query?q=at+least+50%25+blue&mode=bwm&trace=1", nil, "", http.StatusOK, &resp)
	if resp.Trace == nil {
		t.Fatal("trace=1 returned no trace")
	}
	if len(resp.Trace.Phases) == 0 {
		t.Fatal("trace has no phases")
	}
	names := make(map[string]bool)
	for _, p := range resp.Trace.Phases {
		names[p.Name] = true
	}
	for _, want := range []string{"scan", "hydrate"} {
		if !names[want] {
			t.Fatalf("trace phases %v missing %q", names, want)
		}
	}
	if resp.Trace.Counters["candidates_examined"] < 1 {
		t.Fatalf("trace counters %v", resp.Trace.Counters)
	}

	// Without trace=1 the field is absent.
	var bare map[string]json.RawMessage
	doJSON(t, "GET", ts.URL+"/v1/query?q=at+least+50%25+blue", nil, "", http.StatusOK, &bare)
	if _, ok := bare["trace"]; ok {
		t.Fatal("trace present without trace=1")
	}
}

func TestExplainTrace(t *testing.T) {
	ctx := context.Background()
	ts, db := newTestServer(t)
	baseID, _ := db.InsertImageCtx(ctx, "b", mmdb.NewFilledImage(8, 8, dataset.Blue))
	db.InsertEditedCtx(ctx, "e", &mmdb.Sequence{BaseID: baseID, Ops: []mmdb.Op{mmdb.Modify{}}})

	// Plain explain keeps its original shape (a bare plan).
	var plan struct {
		Binaries int `json:"Binaries"`
	}
	doJSON(t, "GET", ts.URL+"/v1/explain?q=at+least+50%25+blue", nil, "", http.StatusOK, &plan)
	if plan.Binaries != 1 {
		t.Fatalf("plan %+v", plan)
	}

	// trace=1 wraps it with the measured execution trace.
	var out struct {
		Plan struct {
			Binaries int `json:"Binaries"`
		} `json:"plan"`
		Trace struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"trace"`
	}
	doJSON(t, "GET", ts.URL+"/v1/explain?q=at+least+50%25+blue&trace=1", nil, "", http.StatusOK, &out)
	if out.Plan.Binaries != 1 {
		t.Fatalf("traced plan %+v", out.Plan)
	}
	if out.Trace.Counters["candidates_examined"] < 1 {
		t.Fatalf("traced counters %v", out.Trace.Counters)
	}
}

func TestPprofIndex(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(raw, []byte("goroutine")) {
		t.Fatal("pprof index lists no profiles")
	}
}

// TestRetiredModesRejected: the two retired mode names get the same
// bad_request envelope as any unknown mode, on both query routes, and the
// message enumerates exactly the four surviving modes.
func TestRetiredModesRejected(t *testing.T) {
	ts, db := newTestServer(t)
	db.InsertImageCtx(context.Background(), "b", mmdb.NewFilledImage(8, 8, dataset.Blue))
	for _, retired := range []string{"bwm-indexed", "cached-bounds"} {
		for _, route := range []string{
			"/v1/query?q=at+least+50%25+blue&mode=",
			"/v1/multirange?bins=0,1,2&min=0&max=1&mode=",
		} {
			var env struct {
				Error string `json:"error"`
				Code  string `json:"code"`
			}
			doJSON(t, "GET", ts.URL+route+retired, nil, "", http.StatusBadRequest, &env)
			if env.Code != "bad_request" {
				t.Fatalf("%s%s: code %q, want bad_request", route, retired, env.Code)
			}
			if !strings.Contains(env.Error, "(valid: bwm, rbm, instantiate, indexed)") {
				t.Fatalf("%s%s: error %q does not enumerate exactly the four modes", route, retired, env.Error)
			}
		}
	}
}

// TestQueryLogNamesResolvedMode: the query log's strategy is the mode that
// ran, so a query without ?mode= logs what the default resolved to — the
// S-tree for a whole answer, the BWM scan for a page — on both query routes.
func TestQueryLogNamesResolvedMode(t *testing.T) {
	ts, db := newTestServer(t)
	db.InsertImageCtx(context.Background(), "b", mmdb.NewFilledImage(8, 8, dataset.Blue))
	for _, tc := range []struct{ route, want string }{
		{"/v1/query?q=at+least+50%25+blue", "indexed"},
		{"/v1/query?q=at+least+50%25+blue&limit=5", "bwm"},
		{"/v1/query?q=at+least+50%25+blue&mode=rbm", "rbm"},
		{"/v1/multirange?bins=0,1,2&min=0&max=1", "indexed"},
		{"/v1/multirange?bins=0,1,2&min=0&max=1&limit=5", "bwm"},
	} {
		obs.DefaultQueryLog().Reset()
		doJSON(t, "GET", ts.URL+tc.route, nil, "", http.StatusOK, nil)
		snap := obs.DefaultQueryLog().Snapshot()
		if len(snap.Recent) != 1 {
			t.Fatalf("%s: %d query log events, want 1", tc.route, len(snap.Recent))
		}
		if got := snap.Recent[0].Strategy; got != tc.want {
			t.Fatalf("%s: logged strategy %q, want %q", tc.route, got, tc.want)
		}
	}
}

func TestInsertWithExplicitID(t *testing.T) {
	ts, db := newTestServer(t)
	img := mmdb.NewFilledImage(6, 6, dataset.Red)

	var obj struct {
		ID uint64 `json:"id"`
	}
	doJSON(t, "POST", ts.URL+"/v1/objects?name=five&id=5", ppmBody(t, img), "image/x-portable-pixmap", http.StatusCreated, &obj)
	if obj.ID != 5 {
		t.Fatalf("explicit insert got id %d", obj.ID)
	}
	// Reusing the id conflicts.
	doJSON(t, "POST", ts.URL+"/v1/objects?name=again&id=5", ppmBody(t, img), "image/x-portable-pixmap", http.StatusConflict, nil)
	// id=0 is not a valid explicit id.
	doJSON(t, "POST", ts.URL+"/v1/objects?name=zero&id=0", ppmBody(t, img), "image/x-portable-pixmap", http.StatusBadRequest, nil)
	// Garbage ids are 400.
	doJSON(t, "POST", ts.URL+"/v1/objects?name=bad&id=xyz", ppmBody(t, img), "image/x-portable-pixmap", http.StatusBadRequest, nil)
	// The allocator continues past the claim.
	doJSON(t, "POST", ts.URL+"/v1/objects?name=auto", ppmBody(t, img), "image/x-portable-pixmap", http.StatusCreated, &obj)
	if obj.ID != 6 {
		t.Fatalf("auto insert after claim got id %d", obj.ID)
	}

	// Sequences take explicit ids too.
	script := strings.NewReader("base 5\ndefine 0 0 6 6\nmodify #ff0000 #00ff00\n")
	var seq struct {
		ID uint64 `json:"id"`
	}
	doJSON(t, "POST", ts.URL+"/v1/sequences?name=seq&id=9", script, "text/plain", http.StatusCreated, &seq)
	if seq.ID != 9 {
		t.Fatalf("explicit sequence insert got id %d", seq.ID)
	}
	if _, err := db.Get(9); err != nil {
		t.Fatalf("sequence 9 not in db: %v", err)
	}
}

func TestMultiRangeEndpoint(t *testing.T) {
	ctx := context.Background()
	ts, db := newTestServer(t)
	if _, err := db.InsertImageCtx(ctx, "red", mmdb.NewFilledImage(8, 8, dataset.Red)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertImageCtx(ctx, "blue", mmdb.NewFilledImage(8, 8, dataset.Blue)); err != nil {
		t.Fatal(err)
	}

	// All-bin query over the full range matches everything.
	var res struct {
		IDs []uint64 `json:"ids"`
	}
	doJSON(t, "GET", ts.URL+"/v1/multirange?bins=0,1,2&min=0&max=1", nil, "", http.StatusOK, &res)

	// Bad inputs are 400s: missing bins, junk bins, junk percentages,
	// unknown mode.
	doJSON(t, "GET", ts.URL+"/v1/multirange", nil, "", http.StatusBadRequest, nil)
	doJSON(t, "GET", ts.URL+"/v1/multirange?bins=a,b", nil, "", http.StatusBadRequest, nil)
	doJSON(t, "GET", ts.URL+"/v1/multirange?bins=0&min=zz", nil, "", http.StatusBadRequest, nil)
	doJSON(t, "GET", ts.URL+"/v1/multirange?bins=0&max=2", nil, "", http.StatusBadRequest, nil)
	doJSON(t, "GET", ts.URL+"/v1/multirange?bins=0&mode=warp", nil, "", http.StatusBadRequest, nil)
}

// TestEmptyAnswerForm pins the wire form of an empty answer: "ids":[] in
// every mode, for text and multi-bin queries alike.
func TestEmptyAnswerForm(t *testing.T) {
	ts, db := newTestServer(t)
	if _, err := db.InsertImageCtx(context.Background(), "blue", mmdb.NewFilledImage(8, 8, dataset.Blue)); err != nil {
		t.Fatal(err)
	}
	doJSON(t, "POST", ts.URL+"/v1/sequences?name=green", strings.NewReader("base 1\nmodify #0000c8 #00c800\n"), "text/plain", http.StatusCreated, nil)
	for _, mode := range []string{"bwm", "rbm", "instantiate", "indexed"} {
		for _, path := range []string{
			"/v1/multirange?bins=0&min=0.5&max=1&mode=" + mode,
			"/v1/query?q=at+least+50%25+red&mode=" + mode,
		} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(body, []byte(`{"ids":[],`)) {
				t.Fatalf("%s: %d %s", path, resp.StatusCode, body)
			}
		}
	}
}

func TestHealthzEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var body struct {
		OK bool `json:"ok"`
	}
	doJSON(t, "GET", ts.URL+"/healthz", nil, "", http.StatusOK, &body)
	if !body.OK {
		t.Fatal("healthz should report ok on a live db")
	}
}

// TestStatsHasNoQueryStats: /v1/stats answers the database statistics
// as-is, with no query_stats section, and a served query is counted where
// per-mode counts live — esidb_queries_total{mode} on /metrics.
func TestStatsHasNoQueryStats(t *testing.T) {
	ctx := context.Background()
	ts, db := newTestServer(t)
	db.InsertImageCtx(ctx, "b", mmdb.NewFilledImage(8, 8, dataset.Blue))
	db.InsertImageCtx(ctx, "r", mmdb.NewFilledImage(8, 8, dataset.Red))

	const bwmQueries = `esidb_queries_total{mode="bwm"}`
	served := func() int64 {
		var doc struct {
			Counters map[string]int64 `json:"counters"`
		}
		doJSON(t, "GET", ts.URL+"/metrics?format=json", nil, "", http.StatusOK, &doc)
		return doc.Counters[bwmQueries]
	}
	before := served()
	var qres struct {
		IDs []uint64 `json:"ids"`
	}
	doJSON(t, "GET", ts.URL+"/v1/query?q=at+least+50%25+blue&mode=bwm", nil, "", http.StatusOK, &qres)
	if len(qres.IDs) != 1 {
		t.Fatalf("query ids %v", qres.IDs)
	}
	if after := served(); after < before+1 {
		t.Fatalf("%s went %d -> %d across a served query", bwmQueries, before, after)
	}

	var st map[string]json.RawMessage
	doJSON(t, "GET", ts.URL+"/v1/stats", nil, "", http.StatusOK, &st)
	if _, ok := st["query_stats"]; ok {
		t.Fatalf("/v1/stats still carries query_stats: %s", st["query_stats"])
	}
	if st["Catalog"] == nil {
		t.Fatalf("/v1/stats lacks the database statistics: %v", st)
	}
}

// TestIntParamsStrict: an integer query parameter that is present but not
// an integer, or a k that is not positive, is a bad_request envelope —
// never a silent default and never a 500.
func TestIntParamsStrict(t *testing.T) {
	ts, db := newTestServer(t)
	base, err := db.InsertImageCtx(context.Background(), "b", mmdb.NewFilledImage(8, 8, dataset.Blue))
	if err != nil {
		t.Fatal(err)
	}
	probe := mmdb.NewFilledImage(8, 8, dataset.Blue)
	augment := fmt.Sprintf("%s/v1/objects/%d/augment", ts.URL, base)
	for _, tc := range []struct {
		url  string
		body bool
	}{
		{ts.URL + "/v1/similar?k=0", true},
		{ts.URL + "/v1/similar?k=-2", true},
		{ts.URL + "/v1/similar?k=abc", true},
		{augment + "?per=abc", false},
		{augment + "?ops=abc", false},
		{augment + "?seed=abc", false},
	} {
		var body io.Reader
		if tc.body {
			body = ppmBody(t, probe)
		}
		var env struct {
			Code string `json:"code"`
		}
		doJSON(t, "POST", tc.url, body, "", http.StatusBadRequest, &env)
		if env.Code != "bad_request" {
			t.Fatalf("POST %s: code %q, want bad_request", tc.url, env.Code)
		}
	}
	if n := len(db.EditedIDs()); n != 0 {
		t.Fatalf("a rejected augment stored %d edited images", n)
	}
}

// ?limit= and ?after= page through an answer on both query endpoints, and a
// non-numeric cursor is a bad_request envelope.
func TestQueryPaging(t *testing.T) {
	ts, db := newTestServer(t)
	for i := 0; i < 5; i++ {
		if _, err := db.InsertImageCtx(context.Background(), "b", mmdb.NewFilledImage(8, 8, dataset.Blue)); err != nil {
			t.Fatal(err)
		}
	}
	for _, route := range []string{
		"/v1/query?q=at+least+50%25+blue",
		"/v1/multirange?bins=0,1,2,3&min=0&max=1",
	} {
		var pages [][]uint64
		for after := uint64(0); ; {
			var res struct {
				IDs     []uint64          `json:"ids"`
				Objects []json.RawMessage `json:"objects"`
			}
			doJSON(t, "GET", fmt.Sprintf("%s%s&limit=2&after=%d", ts.URL, route, after), nil, "", http.StatusOK, &res)
			if len(res.Objects) != len(res.IDs) {
				t.Fatalf("%s: %d objects for %d ids", route, len(res.Objects), len(res.IDs))
			}
			if len(res.IDs) == 0 {
				break
			}
			pages = append(pages, res.IDs)
			after = res.IDs[len(res.IDs)-1]
		}
		if got := fmt.Sprint(pages); got != "[[1 2] [3 4] [5]]" {
			t.Fatalf("%s: pages %s", route, got)
		}
		for _, bad := range []string{"abc", "-1", "1.5"} {
			var env struct {
				Code string `json:"code"`
			}
			doJSON(t, "GET", ts.URL+route+"&after="+bad, nil, "", http.StatusBadRequest, &env)
			if env.Code != "bad_request" {
				t.Fatalf("%s&after=%s: code %q, want bad_request", route, bad, env.Code)
			}
		}
	}
}
