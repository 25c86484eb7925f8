package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"
)

// TestLongPollWaitRoundsUp pins the wait_ms the replication calls send: a
// positive wait never goes out as 0 (which the server reads as "do not
// wait"), and a fractional millisecond rounds up rather than shortening
// the poll.
func TestLongPollWaitRoundsUp(t *testing.T) {
	var got url.Values
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.URL.Query()
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	c := New(ts.URL, ts.Client())
	ctx := context.Background()

	for _, tc := range []struct {
		wait time.Duration
		want string // "" = no wait_ms parameter
	}{
		{0, ""},
		{time.Microsecond, "1"},
		{999 * time.Microsecond, "1"},
		{time.Millisecond, "1"},
		{1500 * time.Microsecond, "2"},
		{250 * time.Millisecond, "250"},
	} {
		if _, err := c.WALTail(ctx, 7, 0, tc.wait); err != nil {
			t.Fatalf("WALTail(wait=%v): %v", tc.wait, err)
		}
		if got.Get("wait_ms") != tc.want || got.Get("from") != "7" {
			t.Fatalf("WALTail(wait=%v) sent %q, want wait_ms=%q", tc.wait, got.Encode(), tc.want)
		}
		if _, err := c.ReplicationStatusCtx(ctx, 3, tc.wait); err != nil {
			t.Fatalf("ReplicationStatusCtx(wait=%v): %v", tc.wait, err)
		}
		if got.Get("wait_ms") != tc.want || got.Get("min_applied") != "3" {
			t.Fatalf("ReplicationStatusCtx(wait=%v) sent %q, want wait_ms=%q", tc.wait, got.Encode(), tc.want)
		}
	}
}
