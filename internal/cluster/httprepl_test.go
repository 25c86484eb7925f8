package cluster

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	mmdb "repro"
	"repro/internal/dataset"
	"repro/internal/server"
)

// httpNode is one `esidb serve` process stood up in-memory: a file-backed
// database (WAL on), a replication runtime, and the HTTP handler — the
// same wiring `serve -replica-of` does.
type httpNode struct {
	id  string
	db  *mmdb.DB
	rep *Replicator
	ts  *httptest.Server
}

func newHTTPNode(t *testing.T, ctx context.Context, dir, id string) *httpNode {
	t.Helper()
	db, err := mmdb.Open(mmdb.WithPath(filepath.Join(dir, id+".db")))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	rep := NewReplicator(ctx, id, db)
	fastTune(rep)
	ts := httptest.NewServer(server.New(db).WithReplication(ServeReplication{R: rep}))
	t.Cleanup(ts.Close)
	return &httpNode{id: id, db: db, rep: rep, ts: ts}
}

func (n *httpNode) member() ReplicaMember {
	return ReplicaMember{ID: n.id, Addr: n.ts.URL, Conn: NewHTTPReplica(n.id, n.ts.URL, nil)}
}

// TestReplicationHTTPEndToEnd runs the whole replication stack over the
// network transport: three serve processes form a replica set, Bootstrap
// wires the followers through POST /v1/follow, writes land through the
// coordinator with the semi-sync ack long-polling /v1/replication, the
// followers converge byte-identically by tailing GET /v1/wal/tail, and
// killing the leader's process fails the set over via POST /v1/promote.
func TestReplicationHTTPEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	dir := t.TempDir()
	leader := newHTTPNode(t, ctx, dir, "s0")
	f1 := newHTTPNode(t, ctx, dir, "s0-r1")
	f2 := newHTTPNode(t, ctx, dir, "s0-r2")

	rs, err := NewReplicaSet("s0", leader.member(), f1.member(), f2.member())
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	m := &ShardMap{Shards: []ShardInfo{{
		ID: "s0", Addr: leader.ts.URL,
		Replicas: []ShardInfo{{ID: "s0-r1", Addr: f1.ts.URL}, {ID: "s0-r2", Addr: f2.ts.URL}},
	}}}
	coord, err := New(m, map[string]Shard{"s0": rs}, Options{Policy: testPolicy()})
	if err != nil {
		t.Fatal(err)
	}

	corp := makeCorpus(4, 2, 77)
	corp.seedCluster(t, coord)

	// Both followers converge on the leader's durable horizon over HTTP.
	lwst, err := NewHTTPReplica("s0", leader.ts.URL, nil).WALStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*httpNode{f1, f2} {
		st, err := NewHTTPReplica(f.id, f.ts.URL, nil).WaitApplied(ctx, lwst.DurableLSN, 10*time.Second)
		if err != nil {
			t.Fatalf("follower %s: %v", f.id, err)
		}
		if st.AppliedLSN < lwst.DurableLSN {
			t.Fatalf("follower %s stuck at %d < %d", f.id, st.AppliedLSN, lwst.DurableLSN)
		}
	}
	lids := dbObjectIDs(leader.db)
	for _, f := range []*httpNode{f1, f2} {
		if fids := dbObjectIDs(f.db); !sameUint64s(lids, fids) {
			t.Fatalf("follower %s census diverged: leader %v follower %v", f.id, lids, fids)
		}
		for _, pq := range parityQueries {
			lres, err := leader.db.QueryCompoundCtx(ctx, pq.text, mmdb.ModeBWM)
			if err != nil {
				t.Fatal(err)
			}
			fres, err := f.db.QueryCompoundCtx(ctx, pq.text, mmdb.ModeBWM)
			if err != nil {
				t.Fatal(err)
			}
			if !sameUint64s(lres.IDs, fres.IDs) {
				t.Fatalf("follower %s query %s diverged", f.id, pq.name)
			}
		}
	}

	// Coordinator answers are whole, and the set's probe sees every
	// member up with the leader in the leader role.
	res, err := coord.Query(ctx, "at least 10% red", "bwm", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("partial result over healthy replica set: missed %v", res.Missed)
	}
	for _, ri := range rs.Probe(ctx) {
		if !ri.Up {
			t.Fatalf("replica %s not up in probe", ri.ID)
		}
		if ri.ID == "s0" && ri.Role != RoleLeader {
			t.Fatalf("leader probed as %s", ri.Role)
		}
	}

	// Kill the leader's process and fail over; the surviving follower
	// pair must elect the most-caught-up one and keep taking writes.
	leader.ts.Close()
	newLeader, err := rs.PromoteNow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if newLeader != "s0-r1" && newLeader != "s0-r2" {
		t.Fatalf("unexpected new leader %q", newLeader)
	}
	post := dataset.Flags(1, 16, 12, 99)[0]
	id, _, err := coord.InsertImage(ctx, "post-failover", post.Img)
	if err != nil {
		t.Fatalf("insert after failover: %v", err)
	}
	for _, f := range []*httpNode{f1, f2} {
		ok, err := NewHTTPReplica(f.id, f.ts.URL, nil).HasObject(ctx, id)
		if err != nil {
			t.Fatalf("replica %s: %v", f.id, err)
		}
		if !ok {
			t.Fatalf("replica %s missing post-failover object %d", f.id, id)
		}
	}
}
