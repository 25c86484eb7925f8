package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	mmdb "repro"
	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// answerShape is one of the two Accept values a client may send for an
// answer, with the Content-Type it gets back and its decoders.
type answerShape struct {
	name, accept, contentType string
	answer                    func([]byte, *api.Answer) error
	list                      func([]byte) ([]api.Object, error)
}

var shapes = []answerShape{
	{"json", "", "application/json", func(b []byte, a *api.Answer) error { return json.Unmarshal(b, a) },
		func(b []byte) (objs []api.Object, err error) { return objs, json.Unmarshal(b, &objs) }},
	{"columns", api.ColumnsMediaType, api.ColumnsMediaType, api.DecodeColumns, api.DecodeColumnObjects},
}

// TestQueryHydrationDuringDeletes: an object deleted between a query choosing
// its id and the handler fetching its metadata is left out of the answer —
// it used to turn the whole response into a 404. While a deleter removes
// every edited image, readers of the three routes that hydrate must see only
// 200s whose objects are exactly the listed ids, under a Content-Length that
// is true, in both shapes. The database is file-backed so that each delete
// waits for its fsync: that paces the deleter to a few hundred reads per
// reader.
func TestQueryHydrationDuringDeletes(t *testing.T) {
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			queryHydrationDuringDeletes(t, shape)
		})
	}
}

func queryHydrationDuringDeletes(t *testing.T, shape answerShape) {
	ctx := context.Background()
	db, err := mmdb.Open(mmdb.WithPath(filepath.Join(t.TempDir(), "db")))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db).WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	defer func() {
		ts.Close()
		db.Close()
	}()
	var edited []uint64
	for i := 0; i < 20; i++ {
		base, err := db.InsertImageCtx(ctx, fmt.Sprintf("b%d", i), mmdb.NewFilledImage(2, 2, dataset.Blue))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 15; j++ {
			id, err := db.InsertEditedCtx(ctx, fmt.Sprintf("e%d-%d", i, j), &mmdb.Sequence{BaseID: base, Ops: []mmdb.Op{mmdb.Modify{}}})
			if err != nil {
				t.Fatal(err)
			}
			edited = append(edited, id)
		}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, id := range edited {
			if err := db.DeleteCtx(ctx, id); err != nil {
				t.Errorf("delete %d: %v", id, err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for _, path := range []string{
		"/v1/query?q=at+least+50%25+blue",
		"/v1/query?q=at+least+50%25+blue&mode=indexed",
		"/v1/multirange?bins=0,1,2,3&min=0&max=1",
		"/v1/objects",
	} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for deleting := true; deleting; {
				select {
				case <-done:
					deleting = false // one more read, of the bases that are left
				default:
				}
				req, _ := http.NewRequest("GET", ts.URL+path, nil)
				if shape.accept != "" {
					req.Header.Set("Accept", shape.accept)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("%s during deletes: status %d, read error %v: %s", path, resp.StatusCode, err, body)
					return
				}
				if resp.ContentLength != int64(len(body)) {
					t.Errorf("%s: Content-Length %d for a %d-byte body", path, resp.ContentLength, len(body))
				}
				if ct := resp.Header.Get("Content-Type"); ct != shape.contentType {
					t.Errorf("%s: Content-Type %q, want %q", path, ct, shape.contentType)
				}
				if path == "/v1/objects" {
					if _, err := shape.list(body); err != nil {
						t.Errorf("%s: %v", path, err)
					}
					continue
				}
				var ans api.Answer
				if err := shape.answer(body, &ans); err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
				if len(ans.Objects) != len(ans.IDs) {
					t.Errorf("%s: %d objects for %d ids", path, len(ans.Objects), len(ans.IDs))
					return
				}
				for i, id := range ans.IDs {
					if ans.Objects[i].ID != id {
						t.Errorf("%s: objects[%d] is %d, ids[%d] is %d", path, i, ans.Objects[i].ID, i, id)
						return
					}
				}
			}
		}(path)
	}
	wg.Wait()
	<-done
}

// TestAnswerNegotiation: a request that does not ask for the column frame
// gets the JSON json.Marshal writes for the answer, as before the frame
// existed; one whose Accept lists it with a non-zero quality gets the frame,
// which decodes to the same answer; both carry Vary: Accept; and errors stay
// JSON whatever the Accept.
func TestAnswerNegotiation(t *testing.T) {
	ctx := context.Background()
	_, db := newTestServer(t)
	base, err := db.InsertImageCtx(ctx, "b\xff<", mmdb.NewFilledImage(4, 2, dataset.Blue))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.InsertEditedCtx(ctx, fmt.Sprintf("e%d", i), &mmdb.Sequence{BaseID: base, Ops: []mmdb.Op{mmdb.Modify{}}}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.QueryCompoundCtx(ctx, "at least 50% blue", mmdb.ModeIndexed)
	if err != nil {
		t.Fatal(err)
	}
	want := api.Answer{IDs: res.IDs, Stats: api.AnswerStats{BinariesChecked: res.Stats.BinariesChecked,
		EditedWalked: res.Stats.EditedWalked, OpsEvaluated: res.Stats.OpsEvaluated, EditedSkipped: res.Stats.EditedSkipped}}
	for _, obj := range db.Objects(res.IDs) {
		want.Objects = append(want.Objects, toWire(obj, false))
	}
	wantJSON, _ := json.Marshal(want)
	wantList, _ := json.Marshal(want.Objects)

	s := New(db)
	serve := func(path, accept string) *httptest.ResponseRecorder {
		r := httptest.NewRequest("GET", path, nil)
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		return w
	}
	for _, path := range []string{"/v1/query?q=at+least+50%25+blue&mode=indexed", "/v1/objects"} {
		wantBody := string(wantJSON) + "\n"
		if path == "/v1/objects" {
			wantBody = string(wantList) + "\n"
		}
		for _, accept := range []string{"", "application/json", "*/*", "application/x-esidb-answer;q=0", "text/html, application/x-esidb-answer; q=0.0"} {
			w := serve(path, accept)
			if w.Code != http.StatusOK || w.Body.String() != wantBody {
				t.Errorf("%s, Accept %q: %d\n got %s\nwant %s", path, accept, w.Code, w.Body, wantBody)
			}
			if ct, vary := w.Header().Get("Content-Type"), w.Header().Get("Vary"); ct != "application/json" || vary != "Accept" {
				t.Errorf("%s, Accept %q: Content-Type %q, Vary %q", path, accept, ct, vary)
			}
		}
		for _, accept := range []string{api.ColumnsMediaType, "application/json;q=0.5, Application/X-ESIDB-Answer", "application/x-esidb-answer ; q=1"} {
			w := serve(path, accept)
			if ct, vary := w.Header().Get("Content-Type"), w.Header().Get("Vary"); w.Code != http.StatusOK || ct != api.ColumnsMediaType || vary != "Accept" {
				t.Errorf("%s, Accept %q: %d, Content-Type %q, Vary %q", path, accept, w.Code, ct, vary)
				continue
			}
			if path == "/v1/objects" {
				objs, err := api.DecodeColumnObjects(w.Body.Bytes())
				var wantObjs []api.Object
				json.Unmarshal(wantList, &wantObjs)
				if err != nil || !reflect.DeepEqual(objs, wantObjs) {
					t.Errorf("%s, Accept %q: %+v (%v), want %+v", path, accept, objs, err, wantObjs)
				}
				continue
			}
			var got, wantAnswer api.Answer
			err := api.DecodeColumns(w.Body.Bytes(), &got)
			json.Unmarshal(wantJSON, &wantAnswer)
			if err != nil || !reflect.DeepEqual(got, wantAnswer) {
				t.Errorf("%s, Accept %q: %+v (%v), want %+v", path, accept, got, err, wantAnswer)
			}
		}
	}
	if w := serve("/v1/query?q=", api.ColumnsMediaType); w.Code != http.StatusBadRequest || w.Header().Get("Content-Type") != "application/json" {
		t.Errorf("a bad query asking for columns: %d, Content-Type %q", w.Code, w.Header().Get("Content-Type"))
	}
}

// TestHydrationMatchesToWire: an answer and a list are encoded straight from
// catalog entries (catalogRow), and the single-object routes from toWire.
// In both shapes every object hydrated must be what a JSON client makes of
// toWire's object: over binaries, widening and non-widening edits, an empty
// name and one that is not UTF-8, with an id deleted between the query and
// the hydration. No width equals its height and no base_id its ops, so a
// pair written the wrong way round shows.
func TestHydrationMatchesToWire(t *testing.T) {
	ctx := context.Background()
	_, db := newTestServer(t)
	insert := func(name string, w, h int) uint64 {
		id, err := db.InsertImageCtx(ctx, name, mmdb.NewFilledImage(w, h, dataset.Blue))
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	edit := func(name string, seq *mmdb.Sequence) uint64 {
		id, err := db.InsertEditedCtx(ctx, name, seq)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	first, second := insert("", 4, 2), insert("b\xff<", 3, 5)
	gone := insert("deleted", 2, 3)
	wide := edit("wide", &mmdb.Sequence{BaseID: second, Ops: []mmdb.Op{mmdb.Modify{}, mmdb.Modify{}, mmdb.Modify{}}})
	narrow := edit("", &mmdb.Sequence{BaseID: second, Ops: []mmdb.Op{mmdb.Modify{}, mmdb.Merge{Target: first, XP: 1}, mmdb.Modify{}, mmdb.Modify{}}})
	ids := []uint64{first, second, gone, wide, narrow}
	if err := db.DeleteCtx(ctx, gone); err != nil {
		t.Fatal(err)
	}
	var want []api.Object
	for _, obj := range db.Objects(ids) {
		b, err := json.Marshal(toWire(obj, false))
		if err != nil {
			t.Fatal(err)
		}
		var o api.Object
		if err := json.Unmarshal(b, &o); err != nil {
			t.Fatal(err)
		}
		want = append(want, o)
	}
	if len(want) != 4 || *want[2].Widening == *want[3].Widening {
		t.Fatalf("the catalog holds %+v: want four objects and both widening flags", want)
	}
	wantIDs := []uint64{first, second, wide, narrow}

	s := New(db)
	for _, shape := range shapes {
		for _, stats := range []*mmdb.QueryStats{{BinariesChecked: 2}, nil} {
			r := httptest.NewRequest("GET", "/v1/query", nil)
			if shape.accept != "" {
				r.Header.Set("Accept", shape.accept)
			}
			w := httptest.NewRecorder()
			s.writeAnswer(w, r, ids, stats, nil, nil)
			var got []api.Object
			var err error
			if stats != nil {
				var a api.Answer
				err = shape.answer(w.Body.Bytes(), &a)
				if !reflect.DeepEqual(a.IDs, wantIDs) {
					t.Errorf("%s answer: ids %v, want %v", shape.name, a.IDs, wantIDs)
				}
				got = a.Objects
			} else {
				got, err = shape.list(w.Body.Bytes())
			}
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s, stats %v: %+v (%v)\nwant %+v", shape.name, stats != nil, got, err, want)
			}
		}
	}
}

// firstWriteHook runs a function when the handler first touches the socket.
type firstWriteHook struct {
	*httptest.ResponseRecorder
	once sync.Once
	hook func()
}

func (w *firstWriteHook) WriteHeader(code int) {
	w.once.Do(w.hook)
	w.ResponseRecorder.WriteHeader(code)
}

func (w *firstWriteHook) Write(p []byte) (int, error) {
	w.once.Do(w.hook)
	return w.ResponseRecorder.Write(p)
}

// TestQueryLogRecordsAfterEncode: the slow-query event of a range query is
// recorded once the body is built — so its duration holds hydration and
// encoding — and before the body goes to the socket. Only the order is
// asserted: when the first byte is written the event is already in the log,
// and its Results is the number of objects the body really carries, here one
// fewer than the query chose because one was deleted in between.
func TestQueryLogRecordsAfterEncode(t *testing.T) {
	ctx := context.Background()
	_, db := newTestServer(t)
	var ids []uint64
	for i := 0; i < 3; i++ {
		id, err := db.InsertImageCtx(ctx, fmt.Sprintf("b%d", i), mmdb.NewFilledImage(2, 2, dataset.Blue))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := db.DeleteCtx(ctx, ids[1]); err != nil {
		t.Fatal(err)
	}

	s := New(db)
	r := httptest.NewRequest("GET", "/v1/query?q=at+least+50%25+blue", nil)
	for _, tc := range []struct {
		name  string
		serve func(w http.ResponseWriter)
	}{
		{"through the route", func(w http.ResponseWriter) { s.ServeHTTP(w, r) }},
		// What handleQuery holds when the delete lands after evaluation.
		{"one id gone since evaluation", func(w http.ResponseWriter) {
			start := time.Now()
			s.writeAnswer(w, r, ids, &mmdb.QueryStats{}, nil, func(results int) {
				logQuery(r, start, "query", "", "stale", nil, results, nil)
			})
		}},
	} {
		obs.DefaultQueryLog().Reset()
		var atFirstWrite obs.QueryLogSnapshot
		w := &firstWriteHook{ResponseRecorder: httptest.NewRecorder()}
		w.hook = func() { atFirstWrite = obs.DefaultQueryLog().Snapshot() }
		tc.serve(w)

		var ans api.Answer
		if err := json.Unmarshal(w.Body.Bytes(), &ans); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(ans.IDs) != 2 || len(ans.Objects) != 2 || ans.IDs[0] != ids[0] || ans.IDs[1] != ids[2] {
			t.Fatalf("%s: answer %s: want ids %d and %d with their objects", tc.name, w.Body, ids[0], ids[2])
		}
		if len(atFirstWrite.Recent) != 1 {
			t.Fatalf("%s: %d events in the query log when the first byte was written, want 1", tc.name, len(atFirstWrite.Recent))
		}
		if got := atFirstWrite.Recent[0].Results; got != len(ans.Objects) {
			t.Fatalf("%s: logged results %d, body carries %d objects", tc.name, got, len(ans.Objects))
		}
	}
}
