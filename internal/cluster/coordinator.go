package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	mmdb "repro"
	"repro/internal/obs"
)

// Options tunes a Coordinator.
type Options struct {
	// Policy is the per-shard call discipline (zero value = defaults).
	Policy Policy
}

// Coordinator owns the ring and a transport per shard and turns the
// sharded cluster back into one logical database: it assigns globally
// unique object ids on insert, routes whole base-clusters to their home
// shard, scatter-gathers queries and merges the answers.
type Coordinator struct {
	pol Policy

	// The membership is fixed at construction: New is the only writer of
	// these four, so readers need no lock.
	smap  *ShardMap
	ring  *Ring
	conns []*shardConn // shard-map order
	byID  map[string]*shardConn

	health *healthState

	insertMu sync.Mutex
	lastID   uint64 // guarded by insertMu
	idSynced bool   // guarded by insertMu
}

// shardConn pairs a transport with its health accounting and metrics.
type shardConn struct {
	shard Shard
	lat   *obs.Histogram
	up    *obs.Gauge
	state *stateMachine
}

func newShardConn(sh Shard) *shardConn {
	reg := obs.Default()
	c := &shardConn{
		shard: sh,
		lat:   reg.Histogram(fmt.Sprintf("esidb_cluster_shard_seconds{shard=%q}", sh.ID()), obs.DefBuckets),
		up:    reg.Gauge(fmt.Sprintf("esidb_cluster_shard_up{shard=%q}", sh.ID())),
		state: newStateMachine(),
	}
	c.publish()
	return c
}

// New builds a coordinator over the map using the provided transports
// (one per shard id in the map).
func New(m *ShardMap, shards map[string]Shard, opts Options) (*Coordinator, error) {
	ring, err := NewRing(m)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		pol:    opts.Policy.withDefaults(),
		smap:   m,
		ring:   ring,
		conns:  make([]*shardConn, 0, len(m.Shards)),
		byID:   make(map[string]*shardConn, len(m.Shards)),
		health: newHealthState(),
	}
	for _, info := range m.Shards {
		sh, ok := shards[info.ID]
		if !ok || sh == nil {
			return nil, fmt.Errorf("cluster: no transport for shard %q", info.ID)
		}
		cc := newShardConn(sh)
		c.conns = append(c.conns, cc)
		c.byID[info.ID] = cc
	}
	return c, nil
}

// Map returns the shard map.
func (c *Coordinator) Map() *ShardMap { return c.smap }

// ShardIDs returns the shard ids in map order.
func (c *Coordinator) ShardIDs() []string {
	out := make([]string, len(c.smap.Shards))
	for i, s := range c.smap.Shards {
		out[i] = s.ID
	}
	return out
}

func (c *Coordinator) connFor(baseID uint64) (*shardConn, string) {
	id := c.ring.ShardFor(baseID)
	return c.byID[id], id
}

// gather is the scatter half of every cluster query: fn runs against each
// live shard under the call policy (timeout, retry), failures past
// the retry budget become missed shards rather than errors, and query
// errors (bad request — deterministic on every shard) fail the whole call.
// A canceled context also fails the whole call: partial results are for
// dead shards, not impatient callers.
func gather[T any](ctx context.Context, c *Coordinator, tr *obs.Trace, fn func(ctx context.Context, sh Shard, sp *obs.Span) (T, error)) (vals []T, ok []bool, missed []string, err error) {
	var targets []*shardConn
	for _, cc := range c.conns {
		if c.health.active() && cc.state.current() == StateDown {
			missed = append(missed, cc.shard.ID())
			continue
		}
		targets = append(targets, cc)
	}
	tr.Count(obs.TClusterShardsQueried, int64(len(targets)))
	vals = make([]T, len(targets))
	ok = make([]bool, len(targets))
	// One goroutine per target, each writing only its own slots; one failed
	// shard must not cancel its siblings.
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, cc := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One span per fan-out leg; the transport hangs the shard-side
			// tree (and callShardSpan its attempt spans) underneath it.
			sp := tr.StartSpan("shard:" + cc.shard.ID())
			v, cerr := callShardSpan(ctx, c.pol, sp, func(actx context.Context, asp *obs.Span) (T, error) {
				done := observeSeconds(cc.lat)
				defer done()
				return fn(actx, cc.shard, asp)
			})
			if cerr == nil {
				vals[i], ok[i] = v, true
				cc.noteSuccess()
			} else {
				sp.SetAttr("error", cerr.Error())
				if !isQueryError(cerr) && ctx.Err() == nil {
					cc.noteFailure()
				}
			}
			sp.End()
			errs[i] = cerr
		}()
	}
	wg.Wait()
	if cerr := ctx.Err(); cerr != nil {
		return nil, nil, nil, cerr
	}
	var failed int64
	for i, e := range errs {
		if e == nil {
			continue
		}
		if isQueryError(e) {
			return nil, nil, nil, e
		}
		failed++
		missed = append(missed, targets[i].shard.ID())
	}
	tr.Count(obs.TClusterShardsFailed, failed)
	if len(missed) == len(c.conns) {
		// Nothing answered; a fully missing result is an outage, not a
		// degraded answer.
		for _, e := range errs {
			if e != nil {
				return nil, nil, nil, fmt.Errorf("cluster: all %d shards failed: %w", len(c.conns), e)
			}
		}
		return nil, nil, nil, fmt.Errorf("cluster: all %d shards down", len(c.conns))
	}
	sort.Strings(missed)
	return vals, ok, missed, nil
}

// ensureRequestID gives the fan-out a request id if the edge did not mint
// one (CLI callers): every shard leg and the query-log event share it.
func ensureRequestID(ctx context.Context) context.Context {
	if obs.RequestIDFromContext(ctx) != "" {
		return ctx
	}
	return obs.ContextWithRequestID(ctx, obs.NewRequestID())
}

// logClusterQuery emits the fan-out's wide event into the process query
// log — always on, independent of whether the call was traced.
func logClusterQuery(ctx context.Context, start time.Time, kind, strategy, query string, tr *obs.Trace, results int, partial bool, err error) {
	ev := obs.QueryEvent{
		Time:       start,
		RequestID:  obs.RequestIDFromContext(ctx),
		Kind:       kind,
		Strategy:   strategy,
		Query:      query,
		Duration:   time.Since(start),
		Results:    results,
		Partial:    partial,
		SpanDigest: tr.Root().Digest(),
		Counters:   tr.Counters(),
	}
	if tr != nil {
		ev.TraceIDHex = tr.TraceID().String()
	}
	if err != nil {
		ev.Error = err.Error()
	}
	obs.DefaultQueryLog().Record(ev)
}

// Query scatter-gathers a textual (range or compound) query and returns
// the deduplicated id union in ascending order.
func (c *Coordinator) Query(ctx context.Context, text, mode string, tr *obs.Trace) (*Result, error) {
	ctx = ensureRequestID(ctx)
	start := time.Now()
	vals, ok, missed, err := gather(ctx, c, tr, func(actx context.Context, sh Shard, sp *obs.Span) (*ShardAnswer, error) {
		return sh.Query(actx, text, mode, sp)
	})
	if err != nil {
		logClusterQuery(ctx, start, "cluster.query", mode, text, tr, 0, false, err)
		return nil, err
	}
	res := mergeAnswers(vals, ok, missed, tr)
	logClusterQuery(ctx, start, "cluster.query", mode, text, tr, len(res.IDs), res.Partial, nil)
	return res, nil
}

// MultiRange scatter-gathers a structured multi-bin range query.
func (c *Coordinator) MultiRange(ctx context.Context, bins []int, pctMin, pctMax float64, mode string, tr *obs.Trace) (*Result, error) {
	ctx = ensureRequestID(ctx)
	start := time.Now()
	vals, ok, missed, err := gather(ctx, c, tr, func(actx context.Context, sh Shard, sp *obs.Span) (*ShardAnswer, error) {
		return sh.MultiRange(actx, bins, pctMin, pctMax, mode, sp)
	})
	if err != nil {
		logClusterQuery(ctx, start, "cluster.multirange", mode, fmt.Sprintf("bins=%v min=%g max=%g", bins, pctMin, pctMax), tr, 0, false, err)
		return nil, err
	}
	res := mergeAnswers(vals, ok, missed, tr)
	logClusterQuery(ctx, start, "cluster.multirange", mode, fmt.Sprintf("bins=%v min=%g max=%g", bins, pctMin, pctMax), tr, len(res.IDs), res.Partial, nil)
	return res, nil
}

// Similar scatter-gathers a k-NN query: every shard returns its local
// top-k, and the global top-k is the k smallest under the (dist,id) total
// order — identical to a single node holding all the data, because each
// shard's top-k is the true k-minimum of its partition under the same
// order.
func (c *Coordinator) Similar(ctx context.Context, probe *mmdb.Image, k int, metric string, tr *obs.Trace) (*KNNResult, error) {
	ctx = ensureRequestID(ctx)
	start := time.Now()
	vals, ok, missed, err := gather(ctx, c, tr, func(actx context.Context, sh Shard, sp *obs.Span) ([]mmdb.Match, error) {
		return sh.Similar(actx, probe, k, metric, sp)
	})
	if err != nil {
		logClusterQuery(ctx, start, "cluster.similar", metric, fmt.Sprintf("k=%d", k), tr, 0, false, err)
		return nil, err
	}
	res := &KNNResult{Missed: missed, Partial: len(missed) > 0}
	if res.Partial {
		tr.Count(obs.TClusterPartialResults, 1)
	}
	best := make(map[uint64]mmdb.Match)
	var dupes int64
	for i, matches := range vals {
		if !ok[i] {
			continue
		}
		for _, m := range matches {
			if prev, seen := best[m.ID]; seen {
				dupes++
				// Replicas report identical distances; keep the smaller
				// (dist,id) defensively.
				if m.Dist < prev.Dist {
					best[m.ID] = m
				}
				continue
			}
			best[m.ID] = m
		}
	}
	tr.Count(obs.TClusterDuplicatesMerged, dupes)
	merged := make([]mmdb.Match, 0, len(best))
	for _, m := range best {
		merged = append(merged, m)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Dist != merged[j].Dist {
			return merged[i].Dist < merged[j].Dist
		}
		return merged[i].ID < merged[j].ID
	})
	if len(merged) > k {
		merged = merged[:k]
	}
	res.Matches = merged
	logClusterQuery(ctx, start, "cluster.similar", metric, fmt.Sprintf("k=%d", k), tr, len(res.Matches), res.Partial, nil)
	return res, nil
}

// ClusterStats is the fan-in of per-shard Stats.
type ClusterStats struct {
	PerShard map[string]*mmdb.Stats
	Partial  bool
	Missed   []string
}

// Stats collects every live shard's database statistics.
func (c *Coordinator) Stats(ctx context.Context) (*ClusterStats, error) {
	ids := make([]string, len(c.conns))
	for i, cc := range c.conns {
		ids[i] = cc.shard.ID()
	}
	vals, ok, missed, err := gather(ctx, c, nil, func(actx context.Context, sh Shard, _ *obs.Span) (*mmdb.Stats, error) {
		return sh.Stats(actx)
	})
	if err != nil {
		return nil, err
	}
	out := &ClusterStats{PerShard: make(map[string]*mmdb.Stats), Missed: missed, Partial: len(missed) > 0}
	j := 0
	for _, id := range ids {
		if contains(missed, id) {
			continue
		}
		if j < len(vals) && ok[j] {
			out.PerShard[id] = vals[j]
		}
		j++
	}
	return out, nil
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// mergeAnswers unions the per-shard id lists and sums the evaluation stats.
// Every list is strictly ascending (ShardAnswer.IDs), so the lists are
// folded pairwise into one buffer of their total length: each is merged
// with the union so far from the back, which reads every id of the union
// before its place is written. An id held by m lists counts as m-1
// duplicates (Merge replicas can match on two shards). An empty union is
// nil.
func mergeAnswers(vals []*ShardAnswer, ok []bool, missed []string, tr *obs.Trace) *Result {
	res := &Result{Missed: missed, Partial: len(missed) > 0}
	if res.Partial {
		tr.Count(obs.TClusterPartialResults, 1)
	}
	total := 0
	for i, a := range vals {
		if ok[i] && a != nil {
			res.Stats.Add(a.Stats)
			total += len(a.IDs)
		}
	}
	buf := make([]uint64, total)
	var union []uint64 // buf[from:end]
	from, end := 0, 0
	var dupes int64
	for i, a := range vals {
		if !ok[i] || a == nil || len(a.IDs) == 0 {
			continue
		}
		l := a.IDs
		end += len(l)
		w, u, k := end, len(union), len(l)
		for k > 0 {
			w--
			switch {
			case u > 0 && union[u-1] > l[k-1]:
				u--
				buf[w] = union[u]
				continue
			case u > 0 && union[u-1] == l[k-1]:
				u--
				dupes++
			}
			k--
			buf[w] = l[k]
		}
		// The union's first u ids precede all of l: they are in place
		// unless a duplicate left a gap after them.
		if w-u != from {
			copy(buf[w-u:w], union[:u])
			from = w - u
		}
		union = buf[from:end]
	}
	res.IDs = union
	tr.Count(obs.TClusterDuplicatesMerged, dupes)
	return res
}

// ensureIDsLocked seeds the global id allocator from the shards' current
// contents (max id + 1). Callers hold insertMu. It needs every shard up —
// allocating ids with part of the id space invisible risks collisions.
func (c *Coordinator) ensureIDsLocked(ctx context.Context) error {
	if c.idSynced {
		return nil
	}
	var max uint64
	for _, cc := range c.conns {
		metas, err := callShard(ctx, c.pol, func(actx context.Context) ([]ObjectMeta, error) {
			return cc.shard.List(actx)
		})
		if err != nil {
			return fmt.Errorf("cluster: id sync on shard %s: %w", cc.shard.ID(), err)
		}
		for _, m := range metas {
			if m.ID > max {
				max = m.ID
			}
		}
	}
	c.lastID = max
	c.idSynced = true
	return nil
}

// InsertImage stores a binary image cluster-wide: the coordinator assigns
// the next global id and routes the raster to the id's home shard.
// Returns the id and the shard it landed on. Inserts are serialized so
// cluster id assignment matches single-node insertion order exactly.
func (c *Coordinator) InsertImage(ctx context.Context, name string, img *mmdb.Image) (uint64, string, error) {
	c.insertMu.Lock()
	defer c.insertMu.Unlock()
	for attempt := 0; ; attempt++ {
		if err := c.ensureIDsLocked(ctx); err != nil {
			return 0, "", err
		}
		id := c.lastID + 1
		conn, home := c.connFor(RouteKey(id, 0))
		_, err := callShard(ctx, c.pol, func(actx context.Context) (struct{}, error) {
			return struct{}{}, conn.shard.InsertImage(actx, id, name, img)
		})
		if err != nil {
			// A failed insert may still have applied (a replica leader can
			// die after committing but before acking), so the cached
			// watermark is no longer trustworthy; re-seed it from the
			// shards before the next allocation. When the failure is a
			// duplicate id, that stale watermark was the cause — re-sync
			// and retry once with a fresh id.
			c.idSynced = false
			if isDuplicateID(err) && attempt == 0 {
				continue
			}
			return 0, "", err
		}
		c.lastID = id
		return id, home, nil
	}
}

// InsertSequence stores an edited image on its base's home shard (the
// base-affine invariant). Merge targets homed elsewhere are first
// replicated onto that shard under their own ids, so sequence evaluation
// never needs a remote lookup.
func (c *Coordinator) InsertSequence(ctx context.Context, name string, seq *mmdb.Sequence) (uint64, string, error) {
	if seq == nil {
		return 0, "", queryError{fmt.Errorf("cluster: nil sequence")}
	}
	c.insertMu.Lock()
	defer c.insertMu.Unlock()
	if err := c.ensureIDsLocked(ctx); err != nil {
		return 0, "", err
	}
	conn, home := c.connFor(RouteKey(0, seq.BaseID))
	if err := c.replicateTargets(ctx, conn, seq); err != nil {
		return 0, "", err
	}
	var id uint64
	for attempt := 0; ; attempt++ {
		id = c.lastID + 1
		_, err := callShard(ctx, c.pol, func(actx context.Context) (struct{}, error) {
			return struct{}{}, conn.shard.InsertSequence(actx, id, name, seq)
		})
		if err == nil {
			break
		}
		// Same ambiguous-outcome rule as InsertImage: the watermark may be
		// stale after any failure; a duplicate id gets one retry with a
		// re-seeded allocator.
		c.idSynced = false
		if isDuplicateID(err) && attempt == 0 {
			if serr := c.ensureIDsLocked(ctx); serr != nil {
				return 0, "", serr
			}
			continue
		}
		return 0, "", err
	}
	c.lastID = id
	return id, home, nil
}

// replicateTargets copies any Merge-target binaries the sequence
// references that are not yet present on the destination shard, keeping
// their global ids (reference replicas).
func (c *Coordinator) replicateTargets(ctx context.Context, dst *shardConn, seq *mmdb.Sequence) error {
	for _, t := range seq.MergeTargets() {
		has, err := callShard(ctx, c.pol, func(actx context.Context) (bool, error) {
			return dst.shard.HasObject(actx, t)
		})
		if err != nil {
			return err
		}
		if has {
			continue
		}
		src, srcID := c.connFor(RouteKey(t, 0))
		if src == dst {
			// Target homes here but is absent: the insert below will fail
			// with the shard's own not-found error.
			continue
		}
		img, err := callShard(ctx, c.pol, func(actx context.Context) (*mmdb.Image, error) {
			return src.shard.Image(actx, t)
		})
		if err != nil {
			return fmt.Errorf("cluster: fetch merge target %d from %s: %w", t, srcID, err)
		}
		meta, _, err := callShard2(ctx, c.pol, func(actx context.Context) (*ObjectMeta, *mmdb.Sequence, error) {
			return src.shard.Object(actx, t)
		})
		if err != nil {
			return fmt.Errorf("cluster: fetch merge target %d metadata from %s: %w", t, srcID, err)
		}
		_, err = callShard(ctx, c.pol, func(actx context.Context) (struct{}, error) {
			return struct{}{}, dst.shard.InsertImage(actx, t, meta.Name, img)
		})
		if err != nil {
			return fmt.Errorf("cluster: replicate merge target %d to %s: %w", t, dst.shard.ID(), err)
		}
	}
	return nil
}

// callShard2 is callShard for two-value transports.
func callShard2[A, B any](ctx context.Context, pol Policy, fn func(context.Context) (A, B, error)) (A, B, error) {
	type pair struct {
		a A
		b B
	}
	p, err := callShard(ctx, pol, func(actx context.Context) (pair, error) {
		a, b, err := fn(actx)
		return pair{a, b}, err
	})
	return p.a, p.b, err
}

// observeSeconds times a call into a histogram.
func observeSeconds(h *obs.Histogram) func() {
	start := nowFunc()
	return func() { h.Observe(nowFunc().Sub(start).Seconds()) }
}
