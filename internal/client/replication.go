package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"time"

	mmdb "repro"
	"repro/internal/api"
	"repro/internal/store"
)

// Replication surface: the WAL tail a follower pulls, the replica status /
// promote / follow control verbs. Wire formats match internal/server
// exactly; the cluster layer's HTTP replica transport is built on these.

// ReplicationStatus is the wire form of a replica's replication state
// (mirrors the cluster layer's ReplStatus field for field).
type ReplicationStatus struct {
	ID         string `json:"id,omitempty"`
	Role       string `json:"role"`
	Leader     string `json:"leader,omitempty"`
	AppliedLSN uint64 `json:"applied_lsn"`
	LeaderLSN  uint64 `json:"leader_lsn"`
	Lag        uint64 `json:"lag"`
	DurableLSN uint64 `json:"durable_lsn"`
	BaseLSN    uint64 `json:"base_lsn"`
	Resyncs    int64  `json:"resyncs"`
	Epoch      int64  `json:"epoch"`
}

// WALTail fetches durable log frames with LSN > from, long-polling up to
// wait when the log has nothing new. A cursor below the server's
// checkpoint floor fails with an error matching store.ErrWALTruncated
// (errors.Is), signalling the caller to re-seed from a snapshot.
func (c *Client) WALTail(ctx context.Context, from uint64, max int, wait time.Duration) (mmdb.WALTailResult, error) {
	q := url.Values{}
	q.Set("from", strconv.FormatUint(from, 10))
	if max > 0 {
		q.Set("max", strconv.Itoa(max))
	}
	if wait > 0 {
		q.Set("wait_ms", waitMillis(wait))
	}
	var out mmdb.WALTailResult
	err := c.doCtx(ctx, "GET", "/v1/wal/tail?"+q.Encode(), nil, "", &out)
	var ae *APIError
	if errors.As(err, &ae) && ae.Code == api.CodeWALTruncated {
		return out, fmt.Errorf("client: %s: %w", ae.Message, store.ErrWALTruncated)
	}
	return out, err
}

// ReplicationStatusCtx fetches the server's replication status. With
// minApplied > 0 (or wait > 0) the server long-polls until its applied LSN
// reaches minApplied or wait elapses; the caller inspects AppliedLSN.
func (c *Client) ReplicationStatusCtx(ctx context.Context, minApplied uint64, wait time.Duration) (ReplicationStatus, error) {
	q := url.Values{}
	if minApplied > 0 {
		q.Set("min_applied", strconv.FormatUint(minApplied, 10))
	}
	if wait > 0 {
		q.Set("wait_ms", waitMillis(wait))
	}
	path := "/v1/replication"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out ReplicationStatus
	err := c.doCtx(ctx, "GET", path, nil, "", &out)
	return out, err
}

// waitMillis renders a long-poll window as the wire's whole milliseconds,
// rounded up: truncating would send a sub-millisecond wait as wait_ms=0,
// turning the long-poll into a busy poll.
func waitMillis(wait time.Duration) string {
	return strconv.FormatInt(int64((wait+time.Millisecond-1)/time.Millisecond), 10)
}

// Promote makes the server the leader of its replica set (idempotent).
func (c *Client) Promote(ctx context.Context) error {
	return c.doCtx(ctx, "POST", "/v1/promote", nil, "", nil)
}

// Follow points the server at a leader: it re-seeds if needed and tails
// the leader's WAL from then on. leaderID is an optional display name.
func (c *Client) Follow(ctx context.Context, leaderID, leaderURL string) error {
	body, err := json.Marshal(map[string]string{"leader": leaderURL, "leader_id": leaderID})
	if err != nil {
		return err
	}
	return c.doCtx(ctx, "POST", "/v1/follow", bytes.NewReader(body), "application/json", nil)
}
