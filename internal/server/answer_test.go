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
	"sync"
	"testing"
	"time"

	mmdb "repro"
	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// TestQueryHydrationDuringDeletes: an object deleted between a query choosing
// its id and the handler fetching its metadata is left out of the answer —
// it used to turn the whole response into a 404. While a deleter removes
// every edited image, readers of the three routes that hydrate must see only
// 200s whose objects are exactly the listed ids, under a Content-Length that
// is true. The database is file-backed so that each delete waits for its
// fsync: that paces the deleter to a few hundred reads per reader.
func TestQueryHydrationDuringDeletes(t *testing.T) {
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
				resp, err := http.Get(ts.URL + path)
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
				if path == "/v1/objects" {
					var objs []api.Object
					if err := json.Unmarshal(body, &objs); err != nil {
						t.Errorf("%s: %v", path, err)
					}
					continue
				}
				var ans api.Answer
				if err := json.Unmarshal(body, &ans); err != nil {
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
			s.writeAnswer(w, ids, &mmdb.QueryStats{}, nil, func(results int) {
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
