package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	mmdb "repro"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

// testPolicy keeps retry/backoff latency out of the test clock.
func testPolicy() Policy {
	return Policy{Timeout: 2 * time.Second, Retries: 1, Backoff: time.Millisecond}
}

// corpus is a deterministic dataset replayed identically into a single
// node and a cluster, so both assign the same ids in the same order.
type corpus struct {
	flags   []dataset.NamedImage
	scripts [][]*mmdb.Sequence // per base, referencing base ids 1..len(flags)
}

func makeCorpus(nBase, perBase int, seed int64) *corpus {
	flags := dataset.Flags(nBase, 24, 18, seed)
	aug := dataset.NewAugmenter(dataset.AugmentConfig{
		PerBase:         perBase,
		OpsPerImage:     4,
		NonWideningFrac: 0.4, // plenty of Merge targets → cross-shard replicas
		Seed:            seed + 1,
	})
	c := &corpus{flags: flags, scripts: make([][]*mmdb.Sequence, nBase)}
	for i := range flags {
		base := uint64(i + 1)
		others := make([]uint64, 0, nBase-1)
		for j := 1; j <= nBase; j++ {
			if uint64(j) != base {
				others = append(others, uint64(j))
			}
		}
		c.scripts[i] = aug.ScriptsFor(base, flags[i].Img, others)
	}
	return c
}

func (c *corpus) seedSingle(t *testing.T) *mmdb.DB {
	t.Helper()
	ctx := context.Background()
	db, err := mmdb.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for i, f := range c.flags {
		id, err := db.InsertImageCtx(ctx, f.Name, f.Img)
		if err != nil {
			t.Fatal(err)
		}
		if id != uint64(i+1) {
			t.Fatalf("single node assigned id %d to base %d", id, i+1)
		}
	}
	for i, f := range c.flags {
		for _, seq := range c.scripts[i] {
			if _, err := db.InsertEditedCtx(ctx, f.Name+"-edit", seq.Clone()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

func (c *corpus) seedCluster(t *testing.T, coord *Coordinator) {
	t.Helper()
	ctx := context.Background()
	for i, f := range c.flags {
		id, _, err := coord.InsertImage(ctx, f.Name, f.Img)
		if err != nil {
			t.Fatal(err)
		}
		if id != uint64(i+1) {
			t.Fatalf("cluster assigned id %d to base %d", id, i+1)
		}
	}
	for i, f := range c.flags {
		for _, seq := range c.scripts[i] {
			if _, _, err := coord.InsertSequence(ctx, f.Name+"-edit", seq.Clone()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// newInProcCluster builds an n-shard embedded cluster with a test policy
// and hands back the shards for Kill/inspection.
func newInProcCluster(t *testing.T, n int) (*Coordinator, []*InProc) {
	t.Helper()
	m := &ShardMap{}
	shards := make(map[string]Shard, n)
	procs := make([]*InProc, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%d", i)
		db, err := mmdb.Open()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		p := NewInProc(id, db)
		m.Shards = append(m.Shards, ShardInfo{ID: id})
		shards[id] = p
		procs[i] = p
	}
	coord, err := New(m, shards, Options{Policy: testPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	return coord, procs
}

var parityQueries = []struct{ name, text string }{
	{"range", "at least 10% red"},
	{"range-narrow", "between 5% and 60% blue"},
	{"compound-and", "at least 5% red and at most 80% green"},
	{"compound-or", "at least 40% red or at least 40% blue"},
}

// TestClusterQueryParity is the differential acceptance test: a 3-shard
// cluster with every shard up answers range, compound, multirange and
// k-NN queries identically to a single node holding all the data.
func TestClusterQueryParity(t *testing.T) {
	c := makeCorpus(9, 3, 42)
	single := c.seedSingle(t)
	coord, _ := newInProcCluster(t, 3)
	c.seedCluster(t, coord)
	ctx := context.Background()

	for _, mode := range []string{"bwm", "rbm", "indexed", ""} {
		m, _ := ParseMode(mode)
		for _, q := range parityQueries {
			want, err := single.QueryCompoundCtx(ctx, q.text, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := coord.Query(ctx, q.text, mode, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", mode, q.name, err)
			}
			if got.Partial || len(got.Missed) != 0 {
				t.Fatalf("%s/%s: unexpected partial result", mode, q.name)
			}
			if !reflect.DeepEqual(got.IDs, want.IDs) {
				t.Fatalf("%s/%s: cluster %v != single %v", mode, q.name, got.IDs, want.IDs)
			}
		}

		mq := mmdb.MultiRange{Bins: []int{0, 1, 2}, PctMin: 0, PctMax: 0.9}
		want, err := single.RangeQueryMultiCtx(ctx, mq, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.MultiRange(ctx, mq.Bins, mq.PctMin, mq.PctMax, mode, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.IDs, want.IDs) {
			t.Fatalf("%s/multirange: cluster %v != single %v", mode, got.IDs, want.IDs)
		}
	}

	for _, metric := range []string{"l1", "l2", "intersection"} {
		met, _ := ParseMetric(metric)
		for _, k := range []int{1, 5, 20} {
			probe := c.flags[2].Img
			want, _, err := single.QueryByExampleCtx(ctx, probe, k, met)
			if err != nil {
				t.Fatal(err)
			}
			got, err := coord.Similar(ctx, probe, k, metric, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.Partial {
				t.Fatalf("%s/k=%d: unexpected partial", metric, k)
			}
			if !reflect.DeepEqual(got.Matches, want) {
				t.Fatalf("%s/k=%d: cluster %v != single %v", metric, k, got.Matches, want)
			}
		}
	}
}

// TestClusterBaseAffinity verifies the partitioning invariant: every
// edited object lives on the same shard as its base, and ids never appear
// on two shards except as merge-target replicas (binaries).
func TestClusterBaseAffinity(t *testing.T) {
	c := makeCorpus(8, 3, 7)
	coord, procs := newInProcCluster(t, 3)
	c.seedCluster(t, coord)
	ctx := context.Background()

	ring := coord.ring
	seenEdited := make(map[uint64]string)
	for _, p := range procs {
		metas, err := p.List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range metas {
			if m.Kind != "edited" {
				continue
			}
			if prev, dup := seenEdited[m.ID]; dup {
				t.Fatalf("edited %d on both %s and %s", m.ID, prev, p.ID())
			}
			seenEdited[m.ID] = p.ID()
			if home := ring.ShardFor(RouteKey(m.ID, m.BaseID)); home != p.ID() {
				t.Fatalf("edited %d (base %d) on %s, home is %s", m.ID, m.BaseID, p.ID(), home)
			}
			has, err := p.HasObject(ctx, m.BaseID)
			if err != nil {
				t.Fatal(err)
			}
			if !has {
				t.Fatalf("edited %d on %s without its base %d", m.ID, p.ID(), m.BaseID)
			}
		}
	}
	if len(seenEdited) == 0 {
		t.Fatal("corpus produced no edited objects")
	}
}

// TestClusterDuplicatesMerged forces a merge-target replica to match on
// two shards and checks the union folds it out (and counts it).
func TestClusterDuplicatesMerged(t *testing.T) {
	c := makeCorpus(8, 3, 42)
	coord, procs := newInProcCluster(t, 3)
	c.seedCluster(t, coord)

	// Find a binary present on more than one shard (a replica).
	ctx := context.Background()
	count := make(map[uint64]int)
	for _, p := range procs {
		metas, err := p.List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range metas {
			if m.Kind == "binary" {
				count[m.ID]++
			}
		}
	}
	replicated := false
	for _, n := range count {
		if n > 1 {
			replicated = true
		}
	}
	if !replicated {
		t.Skip("corpus produced no cross-shard merge targets; widen NonWideningFrac")
	}

	// A query matching everything must still return each id once.
	tr := obs.NewTrace()
	got, err := coord.Query(ctx, "at least 0% red", "bwm", tr)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for _, id := range got.IDs {
		if seen[id] {
			t.Fatalf("duplicate id %d in merged result", id)
		}
		seen[id] = true
	}
	if tr.Counters()[obs.TClusterDuplicatesMerged] == 0 {
		t.Fatal("expected merged duplicates to be counted")
	}
}

// TestClusterPartial kills one shard and checks degraded mode: Partial set,
// the dead shard listed, the answer a subset of the full one — never an
// error, never a false positive.
func TestClusterPartial(t *testing.T) {
	c := makeCorpus(9, 3, 11)
	single := c.seedSingle(t)
	coord, procs := newInProcCluster(t, 3)
	c.seedCluster(t, coord)
	ctx := context.Background()

	full, err := single.QueryCompoundCtx(ctx, "at least 0% red", mmdb.ModeBWM)
	if err != nil {
		t.Fatal(err)
	}
	inFull := make(map[uint64]bool, len(full.IDs))
	for _, id := range full.IDs {
		inFull[id] = true
	}

	procs[1].Kill()
	tr := obs.NewTrace()
	got, err := coord.Query(ctx, "at least 0% red", "bwm", tr)
	if err != nil {
		t.Fatalf("degraded query must not error: %v", err)
	}
	if !got.Partial || !reflect.DeepEqual(got.Missed, []string{"s1"}) {
		t.Fatalf("want Partial with missed [s1], got partial=%v missed=%v", got.Partial, got.Missed)
	}
	if len(got.IDs) == 0 || len(got.IDs) >= len(full.IDs) {
		t.Fatalf("degraded answer should be a proper subset: %d of %d", len(got.IDs), len(full.IDs))
	}
	for _, id := range got.IDs {
		if !inFull[id] {
			t.Fatalf("false positive %d in degraded answer", id)
		}
	}
	if tr.Counters()[obs.TClusterPartialResults] != 1 || tr.Counters()[obs.TClusterShardsFailed] != 1 {
		t.Fatalf("trace counters: %v", tr.Counters())
	}

	// k-NN degrades the same way.
	knn, err := coord.Similar(ctx, c.flags[0].Img, 5, "l1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !knn.Partial || len(knn.Missed) != 1 {
		t.Fatalf("knn: want partial with one missed shard, got %+v", knn)
	}

	procs[1].Revive()
	got, err = coord.Query(ctx, "at least 0% red", "bwm", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial || !reflect.DeepEqual(got.IDs, full.IDs) {
		t.Fatalf("revived cluster should answer fully again")
	}
}

// TestClusterAllShardsDown: a fully dead cluster is an outage (error), not
// an empty partial success.
func TestClusterAllShardsDown(t *testing.T) {
	coord, procs := newInProcCluster(t, 3)
	for _, p := range procs {
		p.Kill()
	}
	if _, err := coord.Query(context.Background(), "at least 0% red", "bwm", nil); err == nil {
		t.Fatal("want error when every shard is down")
	}
}

// TestClusterQueryErrors: deterministic bad requests fail the whole query
// on a healthy cluster instead of degrading.
func TestClusterQueryErrors(t *testing.T) {
	c := makeCorpus(4, 1, 3)
	coord, _ := newInProcCluster(t, 3)
	c.seedCluster(t, coord)
	ctx := context.Background()
	if _, err := coord.Query(ctx, "gibberish query", "bwm", nil); err == nil {
		t.Fatal("want parse error")
	}
	if _, err := coord.Query(ctx, "at least 0% red", "warp", nil); err == nil {
		t.Fatal("want unknown-mode error")
	}
	res, err := coord.Query(ctx, "at least 0% red", "bwm", nil)
	if err != nil || res.Partial {
		t.Fatalf("healthy query after bad ones: %v partial=%v", err, res.Partial)
	}
}

// TestClusterContextCanceled: cancellation is the caller's doing and must
// surface as an error, not a partial answer blaming the shards.
func TestClusterContextCanceled(t *testing.T) {
	c := makeCorpus(4, 1, 3)
	coord, _ := newInProcCluster(t, 3)
	c.seedCluster(t, coord)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := coord.Query(ctx, "at least 0% red", "bwm", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// flakyShard fails its first n calls with a transport-style error, then
// delegates — exercising the retry path.
type flakyShard struct {
	*InProc
	remaining atomic.Int32
}

func (f *flakyShard) Query(ctx context.Context, text, mode string, sp *obs.Span) (*ShardAnswer, error) {
	if f.remaining.Add(-1) >= 0 {
		return nil, store.ErrClosed
	}
	return f.InProc.Query(ctx, text, mode, sp)
}

// TestClusterRetry: a shard that fails once inside the retry budget still
// contributes, so the answer is complete, not partial.
func TestClusterRetry(t *testing.T) {
	ctx := context.Background()
	c := makeCorpus(6, 2, 5)
	single := c.seedSingle(t)
	coord, procs := newInProcCluster(t, 3)
	c.seedCluster(t, coord)

	// Serve the seeded shards again, s0 behind a flaky wrapper.
	flaky := &flakyShard{InProc: procs[0]}
	flaky.remaining.Store(1)
	shards := map[string]Shard{"s0": flaky}
	for _, p := range procs[1:] {
		shards[p.ID()] = p
	}
	coord, err := New(coord.Map(), shards, Options{Policy: testPolicy()})
	if err != nil {
		t.Fatal(err)
	}

	before := mRetries.Value()
	want, err := single.QueryCompoundCtx(ctx, "at least 5% red", mmdb.ModeBWM)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Query(ctx, "at least 5% red", "bwm", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial {
		t.Fatal("retry should have healed the flake")
	}
	if !reflect.DeepEqual(got.IDs, want.IDs) {
		t.Fatalf("cluster %v != single %v", got.IDs, want.IDs)
	}
	if mRetries.Value() <= before {
		t.Fatal("expected the retry counter to move")
	}
}

// TestClusterHealth drives the state machine: consecutive failures mark a
// shard suspect then down, an active health loop makes queries skip it,
// and recovery brings it back.
func TestClusterHealth(t *testing.T) {
	c := makeCorpus(6, 2, 9)
	coord, procs := newInProcCluster(t, 3)
	c.seedCluster(t, coord)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	coord.StartHealth(ctx, time.Hour) // immediate probe; ticker effectively off
	if st := coord.Health()["s2"]; st != StateUp {
		t.Fatalf("s2 should start up, got %v", st)
	}

	procs[2].Kill()
	coord.CheckNow(ctx)
	if st := coord.Health()["s2"]; st != StateSuspect {
		t.Fatalf("after 1 failure want suspect, got %v", st)
	}
	coord.CheckNow(ctx)
	coord.CheckNow(ctx)
	if st := coord.Health()["s2"]; st != StateDown {
		t.Fatalf("after 3 failures want down, got %v", st)
	}
	if ds := coord.DownShards(); !reflect.DeepEqual(ds, []string{"s2"}) {
		t.Fatalf("DownShards = %v", ds)
	}

	// A down shard is skipped, not retried: the query is partial and the
	// retry counter does not move.
	before := mRetries.Value()
	got, err := coord.Query(ctx, "at least 0% red", "bwm", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Partial || !reflect.DeepEqual(got.Missed, []string{"s2"}) {
		t.Fatalf("want partial missing s2, got partial=%v missed=%v", got.Partial, got.Missed)
	}
	if mRetries.Value() != before {
		t.Fatal("down shard should be skipped without retries")
	}

	procs[2].Revive()
	coord.CheckNow(ctx)
	if st := coord.Health()["s2"]; st != StateUp {
		t.Fatalf("revived shard should be up, got %v", st)
	}
	got, err = coord.Query(ctx, "at least 0% red", "bwm", nil)
	if err != nil || got.Partial {
		t.Fatalf("recovered cluster should answer fully: %v partial=%v", err, got.Partial)
	}
}

// TestClusterHTTPParity runs the whole stack over the network transport:
// three httptest `esidb serve` handlers, inserts through the coordinator,
// query parity with a single node, then degraded mode by closing a server.
func TestClusterHTTPParity(t *testing.T) {
	c := makeCorpus(8, 2, 21)
	single := c.seedSingle(t)

	m := &ShardMap{}
	shards := make(map[string]Shard, 3)
	var servers []*httptest.Server
	for i := 0; i < 3; i++ {
		db, err := mmdb.Open()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		ts := httptest.NewServer(server.New(db))
		t.Cleanup(ts.Close)
		servers = append(servers, ts)
		id := fmt.Sprintf("s%d", i)
		m.Shards = append(m.Shards, ShardInfo{ID: id, Addr: ts.URL})
		shards[id] = NewHTTPShard(id, ts.URL, ts.Client())
	}
	pol := testPolicy()
	pol.Backoff = time.Millisecond
	coord, err := New(m, shards, Options{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	c.seedCluster(t, coord)
	ctx := context.Background()

	want, err := single.QueryCompoundCtx(ctx, "at least 5% red and at most 90% blue", mmdb.ModeBWM)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Query(ctx, "at least 5% red and at most 90% blue", "bwm", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial || !reflect.DeepEqual(got.IDs, want.IDs) {
		t.Fatalf("http cluster %v (partial=%v) != single %v", got.IDs, got.Partial, want.IDs)
	}

	// The indexed mode string must flow through the /v1 wire unchanged and
	// answer identically (the S-tree is exact).
	gotIdx, err := coord.Query(ctx, "at least 5% red and at most 90% blue", "indexed", nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotIdx.Partial || !reflect.DeepEqual(gotIdx.IDs, want.IDs) {
		t.Fatalf("http cluster indexed %v (partial=%v) != single %v", gotIdx.IDs, gotIdx.Partial, want.IDs)
	}

	wantKNN, _, err := single.QueryByExampleCtx(ctx, c.flags[1].Img, 7, mmdb.MetricL1)
	if err != nil {
		t.Fatal(err)
	}
	gotKNN, err := coord.Similar(ctx, c.flags[1].Img, 7, "l1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotKNN.Matches, wantKNN) {
		t.Fatalf("http knn %v != single %v", gotKNN.Matches, wantKNN)
	}

	// Bad request over HTTP (400) is a query error: whole call fails.
	if _, err := coord.Query(ctx, "gibberish", "bwm", nil); err == nil {
		t.Fatal("want parse error through HTTP transport")
	}

	// A dead server degrades to partial.
	servers[0].Close()
	got, err = coord.Query(ctx, "at least 5% red and at most 90% blue", "bwm", nil)
	if err != nil {
		t.Fatalf("degraded http query must not error: %v", err)
	}
	if !got.Partial || !reflect.DeepEqual(got.Missed, []string{"s0"}) {
		t.Fatalf("want partial missing s0, got partial=%v missed=%v", got.Partial, got.Missed)
	}
}

// TestClusterStats aggregates per-shard stats and accounts for every
// object exactly once per shard it lives on.
func TestClusterStats(t *testing.T) {
	c := makeCorpus(6, 2, 13)
	coord, _ := newInProcCluster(t, 3)
	c.seedCluster(t, coord)
	st, err := coord.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Partial || len(st.PerShard) != 3 {
		t.Fatalf("stats: %+v", st)
	}
	totalBin := 0
	for _, s := range st.PerShard {
		totalBin += s.Catalog.Binaries
	}
	if totalBin < len(c.flags) {
		t.Fatalf("shards report %d binaries, corpus has %d bases", totalBin, len(c.flags))
	}
}

// TestClusterInsertIDSync: a coordinator built over already-populated
// shards continues the id sequence instead of colliding.
func TestClusterInsertIDSync(t *testing.T) {
	ctx := context.Background()
	c := makeCorpus(5, 1, 17)
	coord, procs := newInProcCluster(t, 3)
	c.seedCluster(t, coord)

	// Rebuild a fresh coordinator over the same shards (restart scenario).
	m := coord.Map()
	shards := make(map[string]Shard, len(procs))
	for _, p := range procs {
		shards[p.ID()] = p
	}
	coord2, err := New(m, shards, Options{Policy: testPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := coord2.InsertImage(ctx, "late", c.flags[0].Img)
	if err != nil {
		t.Fatal(err)
	}
	var max uint64
	for _, p := range procs {
		metas, err := p.List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, mt := range metas {
			if mt.ID > max {
				max = mt.ID
			}
		}
	}
	if id != max {
		t.Fatalf("restarted coordinator assigned %d, cluster max is %d", id, max)
	}
}

// stallShard never answers a query: it blocks until its attempt's context
// is done, the way a shard hung past the policy's per-attempt timeout does.
type stallShard struct{ *InProc }

func (s stallShard) Query(ctx context.Context, text, mode string, sp *obs.Span) (*ShardAnswer, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestShardAttemptTimeout: an attempt that outlives Policy.Timeout is cut
// at the timeout, marked so on its span, and retried within the budget;
// when every attempt times out the call fails with DeadlineExceeded while
// the caller's context is still live, and through the scatter-gather the
// shard is missed instead of failing the query.
func TestShardAttemptTimeout(t *testing.T) {
	pol := Policy{Timeout: 20 * time.Millisecond, Retries: 1, Backoff: time.Millisecond}
	ctx := context.Background()
	coord, procs := newInProcCluster(t, 3)
	c := makeCorpus(6, 2, 5)
	c.seedCluster(t, coord)
	stalled := stallShard{procs[0]}

	tr := obs.NewTrace()
	sp := tr.StartSpan("shard:s0")
	_, err := callShardSpan(ctx, pol, sp, func(actx context.Context, asp *obs.Span) (*ShardAnswer, error) {
		return stalled.Query(actx, "at least 5% red", "bwm", asp)
	})
	sp.End()
	if !errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
		t.Fatalf("got %v with the caller's context at %v; want DeadlineExceeded from the attempts alone", err, ctx.Err())
	}
	attempts := sp.Children()
	if len(attempts) != 2 {
		t.Fatalf("%d attempt spans, want 2 (Retries 1)", len(attempts))
	}
	for _, a := range attempts {
		if a.Name() != "attempt" || a.Attr("timeout") != pol.Timeout.String() {
			t.Errorf("span %s try %s: timeout attribute %q, want %q", a.Name(), a.Attr("try"), a.Attr("timeout"), pol.Timeout)
		}
	}
	if n := tr.Get(obs.TClusterRetries); n != 1 {
		t.Errorf("%d retries counted, want 1", n)
	}

	shards := map[string]Shard{"s0": stalled}
	for _, p := range procs[1:] {
		shards[p.ID()] = p
	}
	coord, err = New(coord.Map(), shards, Options{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Query(ctx, "at least 5% red", "bwm", nil)
	if err != nil {
		t.Fatalf("a timed-out shard failed the query: %v", err)
	}
	if !res.Partial || !reflect.DeepEqual(res.Missed, []string{"s0"}) {
		t.Fatalf("partial %v, missed %v; want the stalled shard missed", res.Partial, res.Missed)
	}
}
