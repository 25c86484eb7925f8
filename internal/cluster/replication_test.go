package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	mmdb "repro"
	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// fastTune shrinks replication timing so tests converge in milliseconds.
func fastTune(r *Replicator) {
	r.PollWait = 150 * time.Millisecond
	r.Backoff = 5 * time.Millisecond
}

func newReplCluster(t *testing.T, shards, replicas int, tuneSet func(*ReplicaSet)) *InProcReplicaCluster {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	c, err := NewReplicatedInProcCluster(ctx, ReplicatedClusterConfig{
		Dir:      t.TempDir(),
		Shards:   shards,
		Replicas: replicas,
		Coord:    Options{Policy: testPolicy()},
		Tune:     fastTune,
		TuneSet:  tuneSet,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitConverged blocks until every follower of every set has applied its
// leader's durable horizon.
func waitConverged(t *testing.T, c *InProcReplicaCluster, timeout time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for _, rs := range c.Sets {
		leaderID := rs.LeaderID()
		leader := c.Nodes[leaderID]
		if leader == nil {
			t.Fatalf("set %s: leader %q not in node table", rs.ID(), leaderID)
		}
		wst, err := leader.WALStatus(ctx)
		if err != nil {
			t.Fatalf("set %s: leader wal status: %v", rs.ID(), err)
		}
		for id, node := range c.Nodes {
			if id == leaderID || node.Replicator().Status().Leader == "" {
				continue
			}
			if node.Replicator().Status().Leader != leaderID {
				continue
			}
			st, err := node.Replicator().WaitApplied(ctx, wst.DurableLSN, timeout)
			if err != nil {
				t.Fatalf("follower %s: wait applied: %v", id, err)
			}
			if st.AppliedLSN < wst.DurableLSN {
				t.Fatalf("follower %s: applied %d < leader durable %d", id, st.AppliedLSN, wst.DurableLSN)
			}
		}
	}
}

// dbObjectIDs is the full object census of one replica, sorted.
func dbObjectIDs(db *mmdb.DB) []uint64 {
	ids := append([]uint64{}, db.Binaries()...)
	ids = append(ids, db.EditedIDs()...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func sameUint64s(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReplicationConverges seeds a 2-shard × 2-replica cluster through the
// coordinator and checks every follower ends bit-identical to its leader:
// same objects, same answers to the parity query workload.
func TestReplicationConverges(t *testing.T) {
	ctx := context.Background()
	c := newReplCluster(t, 2, 2, nil)
	corp := makeCorpus(6, 2, 42)
	corp.seedCluster(t, c.Coord)
	waitConverged(t, c, 10*time.Second)
	for _, rs := range c.Sets {
		leader := c.Nodes[rs.LeaderID()]
		follower := c.Nodes[rs.ID()+"-r1"]
		if follower == leader {
			follower = c.Nodes[rs.ID()+"-r0"]
		}
		lids, fids := dbObjectIDs(leader.DB()), dbObjectIDs(follower.DB())
		if !sameUint64s(lids, fids) {
			t.Fatalf("set %s: object census diverged: leader %v follower %v", rs.ID(), lids, fids)
		}
		for _, pq := range parityQueries {
			lres, err := leader.DB().QueryCompoundCtx(ctx, pq.text, mmdb.ModeBWM)
			if err != nil {
				t.Fatalf("leader %s: %v", pq.name, err)
			}
			fres, err := follower.DB().QueryCompoundCtx(ctx, pq.text, mmdb.ModeBWM)
			if err != nil {
				t.Fatalf("follower %s: %v", pq.name, err)
			}
			if !sameUint64s(lres.IDs, fres.IDs) {
				t.Fatalf("set %s query %s: leader %v follower %v", rs.ID(), pq.name, lres.IDs, fres.IDs)
			}
		}
	}
	// End to end: a coordinator query over the replicated cluster is whole.
	res, err := c.Coord.Query(ctx, "at least 10% red", "bwm", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("replicated cluster returned partial result: missed %v", res.Missed)
	}
}

// replOracleConfigs mirrors the core differential-oracle shapes: varying
// sizes, edit depths and widening mixes under fixed seeds.
var replOracleConfigs = []struct {
	seed    int64
	nBase   int
	perBase int
	nonWid  float64
}{
	{seed: 101, nBase: 4, perBase: 3, nonWid: 0},
	{seed: 202, nBase: 6, perBase: 3, nonWid: 0.3},
	{seed: 303, nBase: 5, perBase: 4, nonWid: 0.5},
	{seed: 404, nBase: 8, perBase: 2, nonWid: 0.8},
	{seed: 505, nBase: 3, perBase: 6, nonWid: 1},
}

// randomReplRanges mirrors the core oracle workload generator.
func randomReplRanges(rng *rand.Rand, bins, n int) []mmdb.Range {
	out := make([]mmdb.Range, n)
	for i := range out {
		lo := rng.Float64()
		q := mmdb.Range{Bin: rng.Intn(bins), PctMin: lo, PctMax: lo + rng.Float64()*(1-lo)}
		switch rng.Intn(8) {
		case 0:
			q.PctMin = 0
		case 1:
			q.PctMax = 1
		case 2:
			q.PctMin, q.PctMax = 0, 1
		case 3:
			q.PctMax = q.PctMin
		}
		out[i] = q
	}
	return out
}

// TestReplicationFollowerReadParity is the differential oracle extended to
// replication: across 5 database shapes × 50 random range queries (250
// combinations), a follower that has applied the leader's durable LSN
// answers every query identically to the leader.
func TestReplicationFollowerReadParity(t *testing.T) {
	for _, cfg := range replOracleConfigs {
		cfg := cfg
		t.Run(fmt.Sprintf("seed=%d", cfg.seed), func(t *testing.T) {
			c := newReplCluster(t, 1, 2, nil)
			ctx := context.Background()
			flags := dataset.Flags(cfg.nBase, 24, 18, cfg.seed)
			aug := dataset.NewAugmenter(dataset.AugmentConfig{
				PerBase:         cfg.perBase,
				OpsPerImage:     4,
				NonWideningFrac: cfg.nonWid,
				Seed:            cfg.seed + 1,
			})
			for _, f := range flags {
				if _, _, err := c.Coord.InsertImage(ctx, f.Name, f.Img); err != nil {
					t.Fatal(err)
				}
			}
			for i, f := range flags {
				base := uint64(i + 1)
				others := make([]uint64, 0, cfg.nBase-1)
				for j := 1; j <= cfg.nBase; j++ {
					if uint64(j) != base {
						others = append(others, uint64(j))
					}
				}
				for _, seq := range aug.ScriptsFor(base, f.Img, others) {
					if _, _, err := c.Coord.InsertSequence(ctx, f.Name+"-edit", seq); err != nil {
						t.Fatal(err)
					}
				}
			}
			waitConverged(t, c, 10*time.Second)
			leader := c.Nodes["s0-r0"].DB()
			follower := c.Nodes["s0-r1"].DB()
			rng := rand.New(rand.NewSource(cfg.seed * 7))
			for qi, q := range randomReplRanges(rng, leader.Quantizer().Bins(), 50) {
				lres, err := leader.RangeQueryCtx(ctx, q, mmdb.ModeBWM)
				if err != nil {
					t.Fatalf("query %d leader: %v", qi, err)
				}
				fres, err := follower.RangeQueryCtx(ctx, q, mmdb.ModeBWM)
				if err != nil {
					t.Fatalf("query %d follower: %v", qi, err)
				}
				if !sameUint64s(lres.IDs, fres.IDs) {
					t.Fatalf("query %d %+v: leader %v follower %v", qi, q, lres.IDs, fres.IDs)
				}
			}
		})
	}
}

// TestReplicationFailover is the fault-injection acceptance test: a
// 3-replica shard under concurrent insert and query load loses its leader.
// The monitor must promote within its health window, no acknowledged write
// may be lost, and every query served during the whole episode must be
// whole (Partial=false) and error-free.
func TestReplicationFailover(t *testing.T) {
	c := newReplCluster(t, 1, 3, func(rs *ReplicaSet) { rs.AckTimeout = 3 * time.Second })
	rs := c.Sets[0]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.StartMonitors(ctx, 20*time.Millisecond)

	flags := dataset.Flags(48, 16, 12, 9)
	var (
		mu    sync.Mutex
		acked []uint64
	)
	// Seed a little so queries have something to chew on from the start.
	for i := 0; i < 6; i++ {
		id, _, err := c.Coord.InsertImage(ctx, flags[i].Name, flags[i].Img)
		if err != nil {
			t.Fatal(err)
		}
		acked = append(acked, id)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Query load: must stay whole throughout the failover. Collect
	// failures rather than t.Fatal from a goroutine.
	var qerrs []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := c.Coord.Query(ctx, "at least 1% red", "bwm", nil)
			mu.Lock()
			if err != nil {
				qerrs = append(qerrs, err.Error())
			} else if res.Partial {
				qerrs = append(qerrs, fmt.Sprintf("partial result, missed %v", res.Missed))
			}
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
		}
	}()
	// Write load: inserts keep flowing across the kill. Failures are
	// expected inside the promotion window (those writes are unacked and
	// carry no guarantee); successes are recorded as acked.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 6; i < len(flags); i++ {
			select {
			case <-stop:
				return
			default:
			}
			id, _, err := c.Coord.InsertImage(ctx, flags[i].Name, flags[i].Img)
			if err == nil {
				mu.Lock()
				acked = append(acked, id)
				mu.Unlock()
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Let load build, then kill the leader mid-flight.
	time.Sleep(50 * time.Millisecond)
	oldLeader := rs.LeaderID()
	c.Nodes[oldLeader].Kill()

	// Promotion must land within the health window (3 failed probes at
	// 20ms) plus slack.
	deadline := time.Now().Add(5 * time.Second)
	for rs.LeaderID() == oldLeader {
		if time.Now().After(deadline) {
			t.Fatalf("no promotion within deadline; leader still %s", oldLeader)
		}
		time.Sleep(5 * time.Millisecond)
	}
	newLeader := rs.LeaderID()
	if newLeader == oldLeader || newLeader == "" {
		t.Fatalf("bad promotion: %q -> %q", oldLeader, newLeader)
	}

	// Keep load running against the new leader, then wind down.
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Writes must flow again post-promotion.
	id, _, err := c.Coord.InsertImage(ctx, "post-failover", flags[0].Img)
	if err != nil {
		t.Fatalf("insert after promotion: %v", err)
	}
	mu.Lock()
	acked = append(acked, id)
	nq := len(qerrs)
	mu.Unlock()
	if nq > 0 {
		t.Fatalf("%d query failures during failover, first: %s", nq, qerrs[0])
	}

	// Zero acked-write loss: every acknowledged insert is on the new
	// leader.
	ldb := c.Nodes[newLeader].DB()
	have := make(map[uint64]bool)
	for _, oid := range dbObjectIDs(ldb) {
		have[oid] = true
	}
	mu.Lock()
	defer mu.Unlock()
	for _, aid := range acked {
		if !have[aid] {
			t.Fatalf("acked write %d lost after promotion to %s (census %v)", aid, newLeader, dbObjectIDs(ldb))
		}
	}
}

// TestReplicationKillPointSweep kills the leader after k acknowledged
// writes for a sweep of k, promotes, and verifies zero acked loss every
// time — the arbitrary-kill-point companion to the concurrent failover
// test.
func TestReplicationKillPointSweep(t *testing.T) {
	flags := dataset.Flags(24, 16, 12, 5)
	for _, killAfter := range []int{0, 1, 3, 7, 14} {
		killAfter := killAfter
		t.Run(fmt.Sprintf("after=%d", killAfter), func(t *testing.T) {
			c := newReplCluster(t, 1, 3, nil)
			rs := c.Sets[0]
			ctx := context.Background()
			var acked []uint64
			for i := 0; i < killAfter; i++ {
				id, _, err := c.Coord.InsertImage(ctx, flags[i].Name, flags[i].Img)
				if err != nil {
					t.Fatal(err)
				}
				acked = append(acked, id)
			}
			c.Nodes[rs.LeaderID()].Kill()
			newLeader, err := rs.PromoteNow(ctx)
			if err != nil {
				t.Fatalf("promote: %v", err)
			}
			// The cluster keeps accepting writes after failover.
			for i := killAfter; i < killAfter+5; i++ {
				id, _, err := c.Coord.InsertImage(ctx, flags[i].Name, flags[i].Img)
				if err != nil {
					t.Fatalf("insert %d after promotion: %v", i, err)
				}
				acked = append(acked, id)
			}
			have := make(map[uint64]bool)
			for _, oid := range dbObjectIDs(c.Nodes[newLeader].DB()) {
				have[oid] = true
			}
			for _, aid := range acked {
				if !have[aid] {
					t.Fatalf("acked write %d lost (killed after %d)", aid, killAfter)
				}
			}
			waitConverged(t, c, 10*time.Second)
		})
	}
}

// servedBy walks a read span and reports which replica answered (the
// replica child without an error attribute).
func servedBy(t *testing.T, sp *obs.Span) (id, role string) {
	t.Helper()
	for _, child := range sp.Children() {
		if child.Attr("error") == "" {
			return child.Name(), child.Attr("role")
		}
	}
	t.Fatalf("no successful replica leg in span %q", sp.Name())
	return "", ""
}

// TestFollowerFreshnessBound pins the follower-read contract: a follower
// whose lag exceeds FreshnessBound stops serving reads (they redirect to
// the leader), the esidb_replica_lag gauge tracks the true LSN delta, and
// catching back up restores follower reads.
func TestFollowerFreshnessBound(t *testing.T) {
	c := newReplCluster(t, 1, 2, func(rs *ReplicaSet) { rs.FreshnessBound = 2 })
	rs := c.Sets[0]
	ctx := context.Background()
	flags := dataset.Flags(10, 16, 12, 3)
	for i := 0; i < 3; i++ {
		if _, _, err := c.Coord.InsertImage(ctx, flags[i].Name, flags[i].Img); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, c, 10*time.Second)
	rs.Probe(ctx)

	leader, follower := c.Nodes["s0-r0"], c.Nodes["s0-r1"]
	// Fresh follower serves reads (it is first in the read order).
	sp := obs.NewRootSpan("read")
	if _, err := rs.Query(ctx, "at least 1% red", "bwm", sp); err != nil {
		t.Fatal(err)
	}
	sp.End()
	if id, role := servedBy(t, sp); id != "replica:s0-r1" || role != RoleFollower {
		t.Fatalf("fresh read served by %s (%s), want follower s0-r1", id, role)
	}

	// Stall the follower and grow the leader's log past the bound. Writes
	// bypass the coordinator here on purpose: the semi-sync ack would
	// (correctly) refuse them with a dead follower, and this test is about
	// read routing.
	follower.Replicator().Pause()
	for i := 3; i < 8; i++ {
		if _, err := leader.DB().InsertImageCtx(ctx, flags[i].Name, flags[i].Img); err != nil {
			t.Fatal(err)
		}
	}
	wst, err := leader.WALStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Pause may land mid-page, so let the applied cursor settle before
	// measuring the true delta.
	gaugeDeadline := time.Now().Add(5 * time.Second)
	gauge := obs.Default().Gauge(`esidb_replica_lag{replica="s0-r1"}`)
	var wantLag uint64
	for {
		wantLag = wst.DurableLSN - follower.Replicator().Status().AppliedLSN
		// The node-side gauge must keep tracking the true delta even while
		// the apply loop is stalled.
		if wantLag > 2 && uint64(gauge.Value()) == wantLag &&
			follower.Replicator().Status().Lag == wantLag {
			break
		}
		if time.Now().After(gaugeDeadline) {
			t.Fatalf("esidb_replica_lag = %v, status lag %d, want %d (>2)",
				gauge.Value(), follower.Replicator().Status().Lag, wantLag)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A probe refreshes the set's routing view; the stale follower must be
	// skipped and the read redirected to the leader.
	rs.Probe(ctx)
	sp = obs.NewRootSpan("read-stale")
	if _, err := rs.Query(ctx, "at least 1% red", "bwm", sp); err != nil {
		t.Fatal(err)
	}
	sp.End()
	if id, role := servedBy(t, sp); id != "replica:s0-r0" || role != RoleLeader {
		t.Fatalf("stale-follower read served by %s (%s), want leader redirect", id, role)
	}

	// Catch-up restores follower reads.
	follower.Replicator().Resume()
	st, err := follower.Replicator().WaitApplied(ctx, wst.DurableLSN, 10*time.Second)
	if err != nil || st.AppliedLSN < wst.DurableLSN {
		t.Fatalf("follower did not catch up: %+v err=%v", st, err)
	}
	rs.Probe(ctx)
	sp = obs.NewRootSpan("read-caught-up")
	if _, err := rs.Query(ctx, "at least 1% red", "bwm", sp); err != nil {
		t.Fatal(err)
	}
	sp.End()
	if id, role := servedBy(t, sp); id != "replica:s0-r1" || role != RoleFollower {
		t.Fatalf("caught-up read served by %s (%s), want follower again", id, role)
	}
}

// TestReplicationFollowerCrashRecovery crashes a follower mid-catch-up
// (simulated power loss: WAL abandoned, no checkpoint), reopens it from
// disk, re-follows, and requires convergence to leader parity — follower
// replay is part of the crash matrix.
func TestReplicationFollowerCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	openAt := func(name string) *mmdb.DB {
		db, err := mmdb.Open(mmdb.WithPath(dir + "/" + name + ".db"))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	ldb, fdb := openAt("leader"), openAt("follower")
	defer ldb.Close()
	leader := NewReplicaNode(ctx, "L", ldb)
	follower := NewReplicaNode(ctx, "F", fdb)
	fastTune(leader.Replicator())
	fastTune(follower.Replicator())
	if err := follower.Follow(ctx, "L", "", leader); err != nil {
		t.Fatal(err)
	}

	flags := dataset.Flags(20, 16, 12, 11)
	for _, f := range flags {
		if _, err := ldb.InsertImageCtx(ctx, f.Name, f.Img); err != nil {
			t.Fatal(err)
		}
	}
	wst, err := leader.WALStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Crash mid-catch-up: wait until the follower is somewhere strictly
	// inside the stream, then pull the plug without sync or checkpoint.
	deadline := time.Now().Add(10 * time.Second)
	for follower.Replicator().Status().AppliedLSN == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never started applying")
		}
		time.Sleep(time.Millisecond)
	}
	if err := fdb.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	follower.Replicator().Stop()

	// Reopen from disk — recovery replays the follower's own WAL — and
	// resume following.
	fdb2 := openAt("follower")
	defer fdb2.Close()
	follower2 := NewReplicaNode(ctx, "F", fdb2)
	fastTune(follower2.Replicator())
	if err := follower2.Follow(ctx, "L", "", leader); err != nil {
		t.Fatal(err)
	}
	st, err := follower2.Replicator().WaitApplied(ctx, wst.DurableLSN, 15*time.Second)
	if err != nil || st.AppliedLSN < wst.DurableLSN {
		t.Fatalf("recovered follower did not converge: %+v err=%v", st, err)
	}
	if lids, fids := dbObjectIDs(ldb), dbObjectIDs(fdb2); !sameUint64s(lids, fids) {
		t.Fatalf("census diverged after crash recovery: leader %v follower %v", lids, fids)
	}
	rng := rand.New(rand.NewSource(99))
	for qi, q := range randomReplRanges(rng, ldb.Quantizer().Bins(), 20) {
		lres, err := ldb.RangeQueryCtx(ctx, q, mmdb.ModeBWM)
		if err != nil {
			t.Fatal(err)
		}
		fres, err := fdb2.RangeQueryCtx(ctx, q, mmdb.ModeBWM)
		if err != nil {
			t.Fatal(err)
		}
		if !sameUint64s(lres.IDs, fres.IDs) {
			t.Fatalf("query %d %+v: leader %v recovered follower %v", qi, q, lres.IDs, fres.IDs)
		}
	}
}

// TestReplicationResyncAfterCheckpoint forces the snapshot path: the
// leader checkpoints (truncating its log) before the follower attaches, so
// tailing from zero is impossible and the follower must re-seed via
// snapshot copy, then converge.
func TestReplicationResyncAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ldb, err := mmdb.Open(mmdb.WithPath(dir + "/leader.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer ldb.Close()
	flags := dataset.Flags(8, 16, 12, 21)
	for _, f := range flags[:5] {
		if _, err := ldb.InsertImageCtx(ctx, f.Name, f.Img); err != nil {
			t.Fatal(err)
		}
	}
	if err := ldb.WALCheckpoint(); err != nil {
		t.Fatal(err)
	}
	leader := NewReplicaNode(ctx, "L", ldb)
	fdb, err := mmdb.Open(mmdb.WithPath(dir + "/follower.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer fdb.Close()
	follower := NewReplicaNode(ctx, "F", fdb)
	fastTune(leader.Replicator())
	fastTune(follower.Replicator())
	if err := follower.Follow(ctx, "L", "", leader); err != nil {
		t.Fatal(err)
	}
	// More writes after the checkpoint arrive through the tail.
	for _, f := range flags[5:] {
		if _, err := ldb.InsertImageCtx(ctx, f.Name, f.Img); err != nil {
			t.Fatal(err)
		}
	}
	wst, err := leader.WALStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st, err := follower.Replicator().WaitApplied(ctx, wst.DurableLSN, 15*time.Second)
	if err != nil || st.AppliedLSN < wst.DurableLSN {
		t.Fatalf("follower did not converge after resync: %+v err=%v", st, err)
	}
	if st.Resyncs == 0 {
		t.Fatal("expected at least one snapshot resync")
	}
	if lids, fids := dbObjectIDs(ldb), dbObjectIDs(fdb); !sameUint64s(lids, fids) {
		t.Fatalf("census diverged after resync: leader %v follower %v", lids, fids)
	}
}

// TestReplicationLeaderRestartKeepsLSNSpace pins the cross-restart LSN
// contract end to end: a leader that checkpoints (clean shutdown) and
// reopens must continue its LSN space rather than restarting at 1, so a
// follower cursor from before the restart still means what it meant —
// semi-sync acks stay truthful and no frames are silently skipped.
func TestReplicationLeaderRestartKeepsLSNSpace(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ldb, err := mmdb.Open(mmdb.WithPath(dir + "/leader.db"))
	if err != nil {
		t.Fatal(err)
	}
	flags := dataset.Flags(8, 16, 12, 33)
	for _, f := range flags[:5] {
		if _, err := ldb.InsertImageCtx(ctx, f.Name, f.Img); err != nil {
			t.Fatal(err)
		}
	}
	wstBefore, ok := ldb.WALStats()
	if !ok {
		t.Fatal("leader has no WAL")
	}
	if err := ldb.Close(); err != nil { // clean shutdown checkpoints the log
		t.Fatal(err)
	}

	ldb2, err := mmdb.Open(mmdb.WithPath(dir + "/leader.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer ldb2.Close()
	for _, f := range flags[5:] {
		if _, err := ldb2.InsertImageCtx(ctx, f.Name, f.Img); err != nil {
			t.Fatal(err)
		}
	}
	wstAfter, _ := ldb2.WALStats()
	if wstAfter.DurableLSN <= wstBefore.DurableLSN {
		t.Fatalf("LSN space restarted: durable %d before close, %d after reopen",
			wstBefore.DurableLSN, wstAfter.DurableLSN)
	}
	// A cursor parked at the old horizon (a follower that outlived the
	// restart) sees only post-restart frames — never a replay of LSNs it
	// already applied under different content.
	res, err := ldb2.WALTail(ctx, wstBefore.DurableLSN, 0, 0)
	if err != nil {
		t.Fatalf("tail from pre-restart horizon: %v", err)
	}
	if len(res.Frames) == 0 {
		t.Fatal("no frames above the pre-restart horizon")
	}
	for _, fr := range res.Frames {
		if fr.LSN <= wstBefore.DurableLSN {
			t.Fatalf("tail re-served pre-restart LSN %d (horizon %d)", fr.LSN, wstBefore.DurableLSN)
		}
	}
	// And a fresh follower of the restarted leader still converges.
	leader := NewReplicaNode(ctx, "L", ldb2)
	fdb, err := mmdb.Open(mmdb.WithPath(dir + "/follower.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer fdb.Close()
	follower := NewReplicaNode(ctx, "F", fdb)
	fastTune(leader.Replicator())
	fastTune(follower.Replicator())
	if err := follower.Follow(ctx, "L", "", leader); err != nil {
		t.Fatal(err)
	}
	st, err := follower.Replicator().WaitApplied(ctx, wstAfter.DurableLSN, 15*time.Second)
	if err != nil || st.AppliedLSN < wstAfter.DurableLSN {
		t.Fatalf("follower did not converge across leader restart: %+v err=%v", st, err)
	}
	if lids, fids := dbObjectIDs(ldb2), dbObjectIDs(fdb); !sameUint64s(lids, fids) {
		t.Fatalf("census diverged: leader %v follower %v", lids, fids)
	}
}

// TestResyncRetiredEpochDoesNotPublish pins the resync epoch guard: a
// resync that finishes after its epoch was superseded by a Follow must not
// publish the retired leader's counters into the new epoch — a stale floor
// LSN in `applied` would falsely satisfy WaitApplied (and semi-sync acks)
// against the new leader's log.
func TestResyncRetiredEpochDoesNotPublish(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	adb, err := mmdb.Open(mmdb.WithPath(dir + "/a.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer adb.Close()
	bdb, err := mmdb.Open(mmdb.WithPath(dir + "/b.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer bdb.Close()
	fdb, err := mmdb.Open(mmdb.WithPath(dir + "/f.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer fdb.Close()
	flags := dataset.Flags(6, 16, 12, 3)
	for _, f := range flags {
		if _, err := adb.InsertImageCtx(ctx, f.Name, f.Img); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint raises A's floor well above anything B will ever assign.
	if err := adb.WALCheckpoint(); err != nil {
		t.Fatal(err)
	}
	nodeA := NewReplicaNode(ctx, "A", adb)
	nodeB := NewReplicaNode(ctx, "B", bdb)
	follower := NewReplicaNode(ctx, "F", fdb)
	fastTune(follower.Replicator())
	if err := follower.Follow(ctx, "A", "", nodeA); err != nil {
		t.Fatal(err)
	}
	eOld := follower.Replicator().Status().Epoch
	// Retarget at the (empty) leader B: the epoch bumps, counters reset.
	if err := follower.Follow(ctx, "B", "", nodeB); err != nil {
		t.Fatal(err)
	}
	wstA, err := nodeA.WALStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if wstA.BaseLSN == 0 {
		t.Fatal("precondition: A's checkpoint floor must be above zero")
	}
	// A resync for the retired epoch completes (or retires) without effect.
	if err := follower.Replicator().resync(eOld, nodeA); err != nil {
		t.Fatalf("stale resync: %v", err)
	}
	st := follower.Replicator().Status()
	if st.AppliedLSN >= wstA.BaseLSN {
		t.Fatalf("stale resync published retired-epoch counters: %+v (A floor %d)",
			st, wstA.BaseLSN)
	}
}

// newTwoNodeSet builds a bootstrapped leader/follower replica set over
// persistent databases and seeds it with the first seedN flags, every
// write fully acked.
func newTwoNodeSet(t *testing.T, seedN int) (*ReplicaSet, *ReplicaNode, *ReplicaNode, []dataset.NamedImage) {
	t.Helper()
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	ldb, err := mmdb.Open(mmdb.WithPath(dir + "/l.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ldb.Close() })
	fdb, err := mmdb.Open(mmdb.WithPath(dir + "/f.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fdb.Close() })
	leader := NewReplicaNode(ctx, "L", ldb)
	follower := NewReplicaNode(ctx, "F", fdb)
	fastTune(leader.Replicator())
	fastTune(follower.Replicator())
	rs, err := NewReplicaSet("s0",
		ReplicaMember{ID: "L", Conn: leader},
		ReplicaMember{ID: "F", Conn: follower})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	flags := dataset.Flags(6, 16, 12, 77)
	for i := 0; i < seedN; i++ {
		if err := rs.InsertImage(ctx, uint64(i+1), flags[i].Name, flags[i].Img); err != nil {
			t.Fatalf("seed insert %d: %v", i+1, err)
		}
	}
	return rs, leader, follower, flags
}

// TestAckWriteIgnoresPromotedFollower: a follower promoted mid-flight
// answers WaitApplied as a leader, with an AppliedLSN from its *own* LSN
// space. The write path must not compare that against the old leader's
// LSN and record a false semi-sync ack.
func TestAckWriteIgnoresPromotedFollower(t *testing.T) {
	rs, _, follower, flags := newTwoNodeSet(t, 2)
	ctx := context.Background()
	follower.Replicator().Promote()
	rs.AckTimeout = 300 * time.Millisecond
	err := rs.InsertImage(ctx, 5, flags[4].Name, flags[4].Img)
	if !errors.Is(err, ErrNoAck) {
		t.Fatalf("insert with promoted follower = %v, want ErrNoAck", err)
	}
}

// TestAckWriteErrorDegradesFollowerHealth: a failed semi-sync wait must
// register on the follower's health view at write time — not a monitor
// tick later — so the read path stops preferring an unreachable follower.
func TestAckWriteErrorDegradesFollowerHealth(t *testing.T) {
	rs, _, follower, flags := newTwoNodeSet(t, 1)
	ctx := context.Background()
	follower.Kill()
	rs.AckTimeout = 300 * time.Millisecond
	if err := rs.InsertImage(ctx, 3, flags[2].Name, flags[2].Img); !errors.Is(err, ErrNoAck) {
		t.Fatalf("insert with dead follower = %v, want ErrNoAck", err)
	}
	_, followers := rs.snapshot()
	if got := followers[0].sm.current(); got == StateUp {
		t.Fatal("dead follower still StateUp after failed ack")
	}
}

// TestInsertDuplicateIDNotSilentlyAbsorbed: retry absorption must be
// narrow. An accidental collision — same id, different content — fails
// loudly with the duplicate-id error; only a true retry (identical
// content) finishes the ack and reports success.
func TestInsertDuplicateIDNotSilentlyAbsorbed(t *testing.T) {
	rs, _, _, flags := newTwoNodeSet(t, 2)
	ctx := context.Background()
	// Accidental collision on a binary id.
	if err := rs.InsertImage(ctx, 1, flags[2].Name, flags[2].Img); !errors.Is(err, catalog.ErrIDTaken) {
		t.Fatalf("conflicting image insert = %v, want ErrIDTaken", err)
	}
	// True retry: identical content is absorbed into an ack.
	if err := rs.InsertImage(ctx, 1, flags[0].Name, flags[0].Img); err != nil {
		t.Fatalf("identical image retry = %v, want success", err)
	}

	aug := dataset.NewAugmenter(dataset.AugmentConfig{PerBase: 1, OpsPerImage: 3, Seed: 9})
	seqA := aug.ScriptsFor(1, flags[0].Img, []uint64{2})[0]
	seqB := aug.ScriptsFor(2, flags[1].Img, []uint64{1})[0]
	if err := rs.InsertSequence(ctx, 10, "edit", seqA.Clone()); err != nil {
		t.Fatalf("sequence insert: %v", err)
	}
	// Accidental collision on an edited id.
	if err := rs.InsertSequence(ctx, 10, "edit", seqB.Clone()); !errors.Is(err, catalog.ErrIDTaken) {
		t.Fatalf("conflicting sequence insert = %v, want ErrIDTaken", err)
	}
	// True retry of the sequence.
	if err := rs.InsertSequence(ctx, 10, "edit", seqA.Clone()); err != nil {
		t.Fatalf("identical sequence retry = %v, want success", err)
	}
}
