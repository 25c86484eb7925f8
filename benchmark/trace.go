package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	mmdb "repro"
	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/query"
)

// The traced pass attributes an op's time to layers from outside the
// program: it replays the first traceShare of the op list with one client,
// each op once untimed and then once at each depth (over the socket, into the handler, into the facade,
// into the parser, into core per mode) and takes a layer's self time as its
// span minus its children's. Counts come from the ?trace=1 / WithTrace
// surfaces the program already has.
const traceShare = 0.10

// Span names. The first five are nested depths; the rest are siblings that
// price an alternative (another mode, the traced request).
const (
	spClient   = "client"         // internal/client call over the socket
	spServer   = "server"         // Server.ServeHTTP into a ResponseRecorder
	spFacade   = "core.facade"    // the mmdb.DB call the handler makes
	spParse    = "query.parse"    // query.ParseCompound alone
	spDecode   = "imaging.decode" // mmdb.DecodePPM of the upload
	spRBM      = "rbm"            // core with the parsed query, per mode
	spBWM      = "bwm"
	spSTree    = "stree"
	spTraced   = "client.traced"       // the socket call again with ?trace=1
	spKNNIndex = "core.knn_indexed"    // QueryByExampleCtx in ModeIndexed
	spCoord    = "cluster.coordinator" // Coordinator.Query / MultiRange
	spShard    = "cluster.shard"       // one ReplicaSet replayed directly
	spCoordIns = "cluster.coordinator.insert"
	spLeadIns  = "cluster.leader.insert" // the same insert on the leader alone, no ack
)

// recorder keeps spans in memory; the replay is single-threaded.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// time runs f as a span and returns the span's id.
func (rec *recorder) time(name string, opID, parent int, f func() error) (int, error) {
	start := time.Since(rec.epoch)
	err := f()
	end := time.Since(rec.epoch)
	id := len(rec.spans) + 1
	rec.spans = append(rec.spans, span{ID: id, Parent: parent, Op: opID, Name: name, Start: int64(start), End: int64(end)})
	return id, err
}

func (rec *recorder) setParent(id, parent int) { rec.spans[id-1].Parent = parent }

func (rec *recorder) write(path string) error {
	data, err := json.Marshal(rec.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// counters sums trace counters over ops.
type counters struct {
	sum map[string]int64
	ops int
}

func (c *counters) add(tr *mmdb.Trace) {
	if c.sum == nil {
		c.sum = make(map[string]int64)
	}
	c.ops++
	for k, v := range tr.Counters() {
		c.sum[k] += v
	}
}

func (c *counters) perOp(key string) float64 {
	if c.ops == 0 {
		return 0
	}
	return float64(c.sum[key]) / float64(c.ops)
}

func p50(xs []float64) float64 { return percentile(sorted(xs), 50) }

// tracedPass produces every per-layer metric of one workload and writes the
// span file. It first runs one ordinary repetition for the write-path deltas
// and the client diagnostics, then the one-client replay.
func (b *bench) tracedPass(ctx context.Context, w *workload, outDir string) (map[string]float64, tally, error) {
	repSeconds := b.seconds / float64(b.sc.reps)
	r, err := b.rep(ctx, w, repSeconds, b.sc.verifyOps)
	if err != nil {
		return nil, tally{}, fmt.Errorf("%s traced repetition: %w", w.name, err)
	}
	var t tally
	t.addRep(&r)
	m := make(map[string]float64)
	reads, writes := sorted(r.timed.readMS), sorted(r.timed.writeMS)
	// A percentile the sample does not support stays 0.
	for _, d := range []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"client.write_p50_ms", writes, 50}, {"client.write_p90_ms", writes, 90},
		{"client.read_p99_ms", reads, 99}, {"client.write_p99_ms", writes, 99},
	} {
		if highestSupported(len(d.xs)) >= d.p {
			m[d.name] = percentile(d.xs, d.p)
		}
	}
	for _, xs := range [][]float64{reads, writes} {
		if len(xs) > 0 {
			m["client.max_ms"] = max(m["client.max_ms"], xs[len(xs)-1])
		}
	}
	st := r.store
	if st.writes > 0 {
		m["wal.fsyncs_per_write"] = float64(st.fsyncs) / float64(st.writes)
	}
	m["wal.checkpoints"] = float64(st.checkpoints)
	m["segment.seals"] = float64(st.seals)
	m["segment.compactions"] = float64(st.compactions)
	m["segment.backlog_end"] = float64(st.backlogEnd)
	m["segment.rate_limit_stall_ms"] = st.stallMS
	if st.userBytes > 0 {
		m["store.disk_bytes_per_user_byte"] = float64(st.diskBytes) / float64(st.userBytes)
	}
	m["store.reopen_s"] = st.reopenS
	m["store.replayed_records"] = float64(st.replayed)
	m["store.check_order_reports"] = float64(st.orderReports)
	m["cluster.follower_lag_lsn_end"] = float64(st.followerLag)
	m["rules.answer_precision"] = r.precision

	rec := newRecorder()
	if w.cluster {
		err = b.replayCluster(ctx, w, rec, m)
	} else {
		err = b.replaySingleNode(ctx, w, rec, m)
	}
	if err != nil {
		return nil, tally{}, fmt.Errorf("%s replay: %w", w.name, err)
	}
	if err := rec.write(filepath.Join(outDir, "spans-"+w.name+".json")); err != nil {
		return nil, tally{}, err
	}
	return m, t, nil
}

// request is one op rendered as the HTTP request internal/client would send.
type request struct {
	method, target, contentType string
	body                        []byte
}

func renderRequest(o *op) (request, error) {
	q := url.Values{}
	switch o.Kind {
	case opQuery:
		q.Set("q", o.Text)
		if o.Mode != "" {
			q.Set("mode", o.Mode)
		}
		if o.Limit > 0 {
			q.Set("limit", strconv.Itoa(o.Limit))
		}
		return request{method: "GET", target: "/v1/query?" + q.Encode()}, nil
	case opSimilar, opInsertImage:
		var buf bytes.Buffer
		if err := mmdb.EncodePPM(&buf, o.Image); err != nil {
			return request{}, err
		}
		target := "/v1/similar?k=" + strconv.Itoa(knnK) + "&metric=l1"
		if o.Kind == opInsertImage {
			q.Set("name", o.Name)
			target = "/v1/objects?" + q.Encode()
		}
		return request{method: "POST", target: target, contentType: "image/x-portable-pixmap", body: buf.Bytes()}, nil
	case opInsertSeq:
		q.Set("name", o.Name)
		return request{method: "POST", target: "/v1/sequences?" + q.Encode(), contentType: "text/plain", body: []byte(mmdb.FormatSequence(o.Seq))}, nil
	}
	return request{}, fmt.Errorf("no request form for op kind %d", o.Kind)
}

// serve sends the request into the handler without a socket.
func (n *node) serve(req request) (*httptest.ResponseRecorder, error) {
	hr := httptest.NewRequest(req.method, req.target, bytes.NewReader(req.body))
	if req.contentType != "" {
		hr.Header.Set("Content-Type", req.contentType)
	}
	rr := httptest.NewRecorder()
	n.srv.ServeHTTP(rr, hr)
	if rr.Code < 200 || rr.Code > 299 {
		return rr, fmt.Errorf("%s %s: status %d: %s", req.method, req.target, rr.Code, strings.TrimSpace(rr.Body.String()))
	}
	return rr, nil
}

func queryOptions(o *op) ([]mmdb.QueryOption, error) {
	mode, err := mmdb.ParseMode(o.Mode)
	if err != nil {
		return nil, err
	}
	return []mmdb.QueryOption{mode, mmdb.WithLimit(o.Limit)}, nil
}

// replaySingleNode is the differential replay on a fresh copy of the
// template.
func (b *bench) replaySingleNode(ctx context.Context, w *workload, rec *recorder, m map[string]float64) error {
	template, err := b.templateDir(ctx)
	if err != nil {
		return err
	}
	dir, err := b.mkdir("trace-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(template, dir); err != nil {
		return err
	}
	n, err := openNode(dir)
	if err != nil {
		return err
	}
	defer n.close()
	db, cl, q := n.db, n.clients[0], quantizer()

	// The S-tree is built lazily by the first indexed query; price that
	// before anything else touches the tree.
	const firstText = "at least 20% red"
	t0 := time.Now()
	if _, err := db.QueryCtx(ctx, firstText, mmdb.ModeIndexed); err != nil {
		return err
	}
	firstIndexedMS := float64(time.Since(t0)) / 1e6
	var steady []float64
	for i := 0; i < 20; i++ {
		t := time.Now()
		if _, err := db.QueryCtx(ctx, firstText, mmdb.ModeIndexed); err != nil {
			return err
		}
		steady = append(steady, float64(time.Since(t))/1e6)
	}
	m["stree.build_ms"] = firstIndexedMS - p50(steady)

	// One rule walk: DB.Bounds over fixed edited ids, for one bin.
	bin, err := db.BinForColor("red")
	if err != nil {
		return err
	}
	stride := max(len(b.corpus.seqs)/b.sc.boundsIDs, 1)
	walks := 0
	t0 = time.Now()
	for j := 0; j < len(b.corpus.seqs); j += stride {
		if _, err := db.Bounds(uint64(len(b.corpus.bases)+j+1), bin); err != nil {
			return err
		}
		walks++
	}
	m["rules.walk_us"] = float64(time.Since(t0)) / 1e3 / float64(walks)

	ops := w.ops[:max(int(float64(len(w.ops))*traceShare), 1)]
	var cnt counters
	var respBytes, hydrated []float64
	var knnPruned, knnInstantiated []float64
	tracedCtx := func() context.Context { return obs.ContextWithSpan(ctx, obs.NewRootSpan("benchmark")) }
	for i := range ops {
		o := &ops[i]
		opID := i + 1
		req, err := renderRequest(o)
		if err != nil {
			return err
		}
		// Each op runs once untimed first, so that whichever depth comes
		// first does not also pay for pulling the op's data into the caches.
		if _, err := doHTTP(ctx, cl, o); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		clientSpan, err := rec.time(spClient, opID, 0, func() error {
			_, err := doHTTP(ctx, cl, o)
			return err
		})
		if err != nil {
			return err
		}
		var rr *httptest.ResponseRecorder
		serverSpan, err := rec.time(spServer, opID, clientSpan, func() error {
			var err error
			rr, err = n.serve(req)
			return err
		})
		if err != nil {
			return err
		}
		respBytes = append(respBytes, float64(rr.Body.Len()))

		switch o.Kind {
		case opQuery:
			opts, err := queryOptions(o)
			if err != nil {
				return err
			}
			facadeSpan, err := rec.time(spFacade, opID, serverSpan, func() error {
				_, err := db.QueryCompoundCtx(ctx, o.Text, opts...)
				return err
			})
			if err != nil {
				return err
			}
			var parsed mmdb.Compound
			if _, err := rec.time(spParse, opID, facadeSpan, func() error {
				var err error
				parsed, err = query.ParseCompound(o.Text, q)
				return err
			}); err != nil {
				return err
			}
			// The workload's own mode is the facade's child; the other two
			// are priced beside it.
			own := spBWM
			if o.Mode == "indexed" {
				own = spSTree
			}
			for _, pm := range []struct {
				name string
				mode mmdb.Mode
			}{{spRBM, mmdb.ModeRBM}, {spBWM, mmdb.ModeBWM}, {spSTree, mmdb.ModeIndexed}} {
				parent := 0
				if pm.name == own {
					parent = facadeSpan
				}
				if _, err := rec.time(pm.name, opID, parent, func() error {
					_, err := db.CompoundQueryCtx(ctx, parsed, pm.mode, mmdb.WithLimit(o.Limit))
					return err
				}); err != nil {
					return err
				}
			}
			if _, err := rec.time(spTraced, opID, 0, func() error {
				traced, err := cl.QueryCtx(tracedCtx(), o.Text, o.Mode, false, client.Limit(o.Limit))
				if err == nil {
					cnt.add(traced.Trace)
					hydrated = append(hydrated, float64(len(traced.Objects)))
				}
				return err
			}); err != nil {
				return err
			}
		case opSimilar:
			var probe *mmdb.Image
			if _, err := rec.time(spDecode, opID, serverSpan, func() error {
				var err error
				probe, err = mmdb.DecodePPM(bytes.NewReader(req.body))
				return err
			}); err != nil {
				return err
			}
			if _, err := rec.time(spFacade, opID, serverSpan, func() error {
				_, st, err := db.QueryByExampleCtx(ctx, probe, knnK, mmdb.MetricL1)
				if err == nil {
					knnPruned = append(knnPruned, float64(st.EditedPruned))
					knnInstantiated = append(knnInstantiated, float64(st.EditedInstantiated))
				}
				return err
			}); err != nil {
				return err
			}
			if _, err := rec.time(spKNNIndex, opID, 0, func() error {
				_, _, err := db.QueryByExampleCtx(ctx, probe, knnK, mmdb.MetricL1, mmdb.ModeIndexed)
				return err
			}); err != nil {
				return err
			}
			if _, err := rec.time(spTraced, opID, 0, func() error {
				_, tr, err := cl.SimilarTracedCtx(tracedCtx(), o.Image, knnK, "l1")
				if err == nil {
					cnt.add(tr)
				}
				return err
			}); err != nil {
				return err
			}
		case opInsertImage:
			var img *mmdb.Image
			if _, err := rec.time(spDecode, opID, serverSpan, func() error {
				var err error
				img, err = mmdb.DecodePPM(bytes.NewReader(req.body))
				return err
			}); err != nil {
				return err
			}
			if _, err := rec.time(spFacade, opID, serverSpan, func() error {
				_, err := db.InsertImageCtx(ctx, o.Name, img)
				return err
			}); err != nil {
				return err
			}
		case opInsertSeq:
			if _, err := rec.time(spFacade, opID, serverSpan, func() error {
				_, err := db.InsertEditedCtx(ctx, o.Name, o.Seq)
				return err
			}); err != nil {
				return err
			}
		}
	}

	// wal.bytes_per_write needs a window no checkpoint truncates: the facade
	// inserts of the sample, re-run with the log size read around each.
	var walBytes []float64
	for i := range ops {
		o := &ops[i]
		if !o.isWrite() {
			continue
		}
		before, _ := db.WALStats()
		if o.Kind == opInsertImage {
			_, err = db.InsertImageCtx(ctx, o.Name, o.Image)
		} else {
			_, err = db.InsertEditedCtx(ctx, o.Name, o.Seq)
		}
		if err != nil {
			return err
		}
		after, _ := db.WALStats()
		if after.Checkpoints == before.Checkpoints {
			walBytes = append(walBytes, float64(after.SizeBytes-before.SizeBytes))
		}
	}
	m["wal.bytes_per_write"] = mean(walBytes)

	self, dur := selfTimes(rec.spans), durations(rec.spans)
	m["client.self_ms"] = p50(self[spClient])
	m["server.self_ms"] = p50(self[spServer])
	m["core.facade_ms"] = p50(dur[spFacade])
	m["query.parse_us"] = p50(dur[spParse]) * 1e3
	m["imaging.decode_us"] = p50(dur[spDecode]) * 1e3
	m["rbm.query_ms"] = p50(dur[spRBM])
	m["bwm.query_ms"] = p50(dur[spBWM])
	m["stree.query_ms"] = p50(dur[spSTree])
	if m["rbm.query_ms"] > 0 {
		m["bwm.time_vs_rbm"] = m["bwm.query_ms"] / m["rbm.query_ms"]
	}
	if len(dur[spKNNIndex]) > 0 {
		m["core.knn_scan_ms"] = p50(dur[spFacade])
		m["core.knn_indexed_ms"] = p50(dur[spKNNIndex])
		m["core.knn_edited_pruned_share"] = mean(knnPruned) / float64(len(b.corpus.seqs))
		m["core.knn_instantiated_per_op"] = mean(knnInstantiated)
	}
	if untraced := p50(dur[spClient]); len(dur[spTraced]) > 0 && untraced > 0 {
		m["obs.trace_overhead_pct"] = 100 * (p50(dur[spTraced]) - untraced) / untraced
	}
	m["client.response_kb"] = mean(respBytes) / 1e3
	m["server.objects_hydrated_per_op"] = mean(hydrated)
	for name, key := range map[string]string{
		"core.candidates_examined_per_op": obs.TCandidatesExamined,
		"core.edited_walked_per_op":       obs.TEditedWalked,
		"core.images_returned_per_op":     obs.TImagesReturned,
		"rules.ops_evaluated_per_op":      obs.TRulesEvaluated,
		"bwm.cluster_hits_per_op":         obs.TClusterHits,
		"bwm.fastpath_admitted_per_op":    obs.TFastPathAdmitted,
		"bwm.unclassified_walked_per_op":  obs.TUnclassifiedWalked,
		"stree.nodes_visited_per_op":      obs.TIndexNodesVisited,
		"stree.subtree_admitted_per_op":   obs.TIndexSubtreeAdmitted,
		"stree.leaf_checks_per_op":        obs.TIndexLeafChecks,
		"exec.workers":                    obs.TParallelWorkers,
		"exec.parallel_tasks_per_op":      obs.TParallelTasks,
		"exec.parallel_steals_per_op":     obs.TParallelSteals,
		"segment.sketch_checks_per_op":    obs.TSegmentSketchChecks,
		"segment.sketch_skips_per_op":     obs.TSegmentSkipped,
	} {
		m[name] = cnt.perOp(key)
	}
	return nil
}

// replayCluster prices the coordinator against its shards and the follower
// ack against a leader-only insert, on a freshly loaded cluster.
func (b *bench) replayCluster(ctx context.Context, w *workload, rec *recorder, m map[string]float64) error {
	dir, err := b.mkdir("trace-cluster-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cn, err := openCluster(dir)
	if err != nil {
		return err
	}
	defer cn.close()
	part := b.corpus.prefix(b.sc.clusterBases, b.sc.perBase)
	if err := part.load(ctx, cn.inserter(), 1); err != nil {
		return err
	}
	coord := cn.rc.Coord
	ops := w.ops[:max(int(float64(len(w.ops))*traceShare), 1)]
	if warm := runPhase(ctx, ops, cn.doers()[:1], 0); warm.firstErr != nil {
		return fmt.Errorf("warm-up: %w", warm.firstErr)
	}

	var cnt counters
	for i := range ops {
		o := &ops[i]
		opID := i + 1
		switch o.Kind {
		case opQuery, opMultiRange:
			coordSpan, err := rec.time(spCoord, opID, 0, func() error {
				_, err := cn.do(ctx, o)
				return err
			})
			if err != nil {
				return err
			}
			// The coordinator waits for its slowest shard, so only that
			// replay is the coordinator span's child.
			slowest, slowestMS := 0, -1.0
			for _, rs := range cn.rc.Sets {
				id, err := rec.time(spShard, opID, 0, func() error {
					if o.Kind == opQuery {
						_, err := rs.Query(ctx, o.Text, o.Mode, nil)
						return err
					}
					_, err := rs.MultiRange(ctx, o.Bins, o.Lo, o.Hi, o.Mode, nil)
					return err
				})
				if err != nil {
					return err
				}
				if ms := rec.spans[id-1].ms(); ms > slowestMS {
					slowest, slowestMS = id, ms
				}
			}
			rec.setParent(slowest, coordSpan)
			tr := mmdb.NewTrace()
			if o.Kind == opQuery {
				_, err = coord.Query(ctx, o.Text, o.Mode, tr)
			} else {
				_, err = coord.MultiRange(ctx, o.Bins, o.Lo, o.Hi, o.Mode, tr)
			}
			if err != nil {
				return err
			}
			cnt.add(tr)
		case opInsertSeq:
			if _, err := rec.time(spCoordIns, opID, 0, func() error {
				_, err := cn.do(ctx, o)
				return err
			}); err != nil {
				return err
			}
		}
	}
	// Leader-only inserts go last, under ids far above the coordinator's
	// allocator, so they cannot collide with an id it hands out.
	nextID := uint64(1) << 40
	for i := range ops {
		o := &ops[i]
		if o.Kind != opInsertSeq {
			continue
		}
		leader, err := cn.leaderHolding(ctx, o.Seq)
		if err != nil {
			return err
		}
		nextID++
		if _, err := rec.time(spLeadIns, i+1, 0, func() error {
			return leader(ctx, nextID, o.Name, o.Seq)
		}); err != nil {
			return err
		}
	}

	self, dur := selfTimes(rec.spans), durations(rec.spans)
	m["cluster.coordinator_self_ms"] = p50(self[spCoord])
	if len(dur[spLeadIns]) > 0 {
		m["cluster.write_ack_ms"] = p50(dur[spCoordIns]) - p50(dur[spLeadIns])
	}
	m["cluster.shards_queried_per_op"] = cnt.perOp(obs.TClusterShardsQueried)
	m["cluster.duplicates_merged_per_op"] = cnt.perOp(obs.TClusterDuplicatesMerged)
	m["cluster.retries"] = float64(cnt.sum[obs.TClusterRetries])
	m["cluster.hedges"] = float64(cnt.sum[obs.TClusterHedges])
	m["cluster.partial_results"] = float64(cnt.sum[obs.TClusterPartialResults])
	m["core.candidates_examined_per_op"] = cnt.perOp(obs.TCandidatesExamined)
	m["core.images_returned_per_op"] = cnt.perOp(obs.TImagesReturned)
	m["rules.ops_evaluated_per_op"] = cnt.perOp(obs.TRulesEvaluated)
	return nil
}

// leaderHolding returns the insert method of the leader node of the shard
// that holds the sequence's base and every Merge target.
func (cn *clusterNode) leaderHolding(ctx context.Context, seq *mmdb.Sequence) (func(context.Context, uint64, string, *mmdb.Sequence) error, error) {
	need := append([]uint64{seq.BaseID}, seq.MergeTargets()...)
	for _, rs := range cn.rc.Sets {
		node := cn.rc.Nodes[rs.LeaderID()]
		all := true
		for _, id := range need {
			has, err := node.HasObject(ctx, id)
			if err != nil {
				return nil, err
			}
			all = all && has
		}
		if all {
			return node.InsertSequence, nil
		}
	}
	return nil, fmt.Errorf("no shard holds base %d and its merge targets", seq.BaseID)
}
