package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	mmdb "repro"
)

// TestV1AndLegacyAliases pins the versioned surface: every API route
// answers under /v1 only, no legacy unversioned alias answers (the mux's
// own 404), the operational endpoints stay unversioned, and no response
// carries a Deprecation header. The routes list must match the s.api calls
// in New: a route registered there and missing here goes unchecked.
func TestV1AndLegacyAliases(t *testing.T) {
	db, err := mmdb.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ts := httptest.NewServer(New(db))
	defer ts.Close()

	do := func(method, path string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.Header.Get("Deprecation") != "" {
			t.Errorf("%s %s carries Deprecation", method, path)
		}
		return resp
	}
	// A route the mux does not know answers its plain-text 404; a handler
	// answers JSON, its errors included.
	unrouted := func(resp *http.Response) bool {
		return resp.StatusCode == http.StatusNotFound && !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json")
	}

	routes := []struct{ method, path string }{
		{"POST", "/objects"}, {"POST", "/sequences"}, {"GET", "/objects"},
		{"GET", "/objects/1"}, {"GET", "/objects/1/image"}, {"POST", "/objects/1/augment"},
		{"DELETE", "/objects/1"}, {"GET", "/query"}, {"GET", "/multirange"},
		{"GET", "/explain"}, {"POST", "/similar"}, {"GET", "/stats"}, {"GET", "/wal"},
		{"GET", "/wal/tail"}, {"GET", "/replication"}, {"POST", "/promote"},
		{"POST", "/follow"}, {"POST", "/checkpoint"}, {"POST", "/compact"},
	}
	for _, r := range routes {
		if resp := do(r.method, "/v1"+r.path); unrouted(resp) {
			t.Errorf("%s /v1%s is not routed", r.method, r.path)
		}
		if resp := do(r.method, r.path); !unrouted(resp) {
			t.Errorf("%s %s (unversioned) answered %d, want the mux's 404", r.method, r.path, resp.StatusCode)
		}
	}
	if resp := do("GET", "/v1/stats"); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", resp.StatusCode)
	}
	for _, path := range []string{"/healthz", "/metrics"} {
		if resp := do("GET", path); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		if resp := do("GET", "/v1"+path); !unrouted(resp) {
			t.Fatalf("GET /v1%s answered %d; operational endpoints are unversioned", path, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/wal")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/wal: %d", resp.StatusCode)
	}
	var out struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Enabled {
		t.Fatal("in-memory database reported an enabled WAL")
	}
}

// TestErrorEnvelope pins the uniform error body: every failing route
// answers {"error", "code", "request_id"} with a stable code slug.
func TestErrorEnvelope(t *testing.T) {
	db, err := mmdb.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ts := httptest.NewServer(New(db))
	defer ts.Close()

	cases := []struct {
		path   string
		status int
		code   string
	}{
		{"/v1/objects/999", http.StatusNotFound, "not_found"},
		{"/v1/objects/bogus", http.StatusBadRequest, "bad_request"},
		{"/v1/query", http.StatusBadRequest, "bad_request"},
	}
	for _, c := range cases {
		resp, err := http.Get(ts.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Error     string `json:"error"`
			Code      string `json:"code"`
			RequestID string `json:"request_id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s: decode: %v", c.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d", c.path, resp.StatusCode, c.status)
		}
		if env.Code != c.code {
			t.Errorf("%s: code %q, want %q", c.path, env.Code, c.code)
		}
		if env.Error == "" || env.RequestID == "" {
			t.Errorf("%s: incomplete envelope %+v", c.path, env)
		}
		if got := resp.Header.Get("X-Request-ID"); got != env.RequestID {
			t.Errorf("%s: envelope request_id %q != header %q", c.path, env.RequestID, got)
		}
	}
}
