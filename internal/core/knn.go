package core

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/editops"
	"repro/internal/exec"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/signature"
)

// Process-wide k-NN counters: how many edited images the bound-based lower
// bound pruned versus how many had to be instantiated.
var (
	mKNNScored       = obs.Default().Counter("esidb_knn_binaries_scored_total")
	mKNNPruned       = obs.Default().Counter("esidb_knn_edited_pruned_total")
	mKNNInstantiated = obs.Default().Counter("esidb_knn_edited_instantiated_total")
)

// k-NN similarity search — the paper's future-work extension (§6). Binary
// images are ranked by exact histogram distance. Edited images are handled
// without eager instantiation: the rule engine's per-bin bounds yield a
// LOWER bound on the distance from the query histogram, so any edited image
// whose lower bound exceeds the current k-th best distance is pruned; only
// the survivors are instantiated for their exact distance.

// Match is one k-NN result.
type Match struct {
	ID   uint64
	Dist float64
}

// KNNStats instruments a k-NN execution.
type KNNStats struct {
	// BinariesScored is the number of exact binary distances computed.
	BinariesScored int
	// EditedPruned is the number of edited images rejected on their lower
	// bound alone.
	EditedPruned int
	// EditedInstantiated is the number of edited images materialized for
	// an exact distance.
	EditedInstantiated int
}

// KNN returns the k objects most similar to the query histogram, across
// binary and edited images, with bound-based pruning for the latter.
//
// Deprecated: use KNNCtx.
func (db *DB) KNN(q query.KNN) ([]Match, *KNNStats, error) {
	return db.KNNCtx(context.Background(), q)
}

// KNNCtx is the canonical k-NN entry point: ctx cancellation stops the
// candidate pass, and options select the strategy. Every scan mode runs the
// same algorithm (exact binary pass, bound-pruned edited pass);
// ModeIndexed switches to best-first branch-and-bound over the S-tree. The
// returned top-k is identical either way.
func (db *DB) KNNCtx(ctx context.Context, q query.KNN, opts ...QueryOption) ([]Match, *KNNStats, error) {
	cfg := buildQueryConfig(opts)
	var (
		out []Match
		st  *KNNStats
		err error
	)
	if cfg.Mode == ModeIndexed {
		out, st, err = db.knnSTree(ctx, q, cfg.Trace)
	} else {
		out, st, err = db.knnScan(ctx, q, cfg.Trace)
	}
	if err != nil {
		return nil, nil, err
	}
	if cfg.Limit > 0 && len(out) > cfg.Limit {
		out = out[:cfg.Limit:cfg.Limit]
	}
	return out, st, nil
}

// KNNTraced is KNN with phase timings and pruning decisions recorded into
// tr (nil disables tracing).
//
// Deprecated: use KNNCtx with WithTrace.
func (db *DB) KNNTraced(q query.KNN, tr *obs.Trace) ([]Match, *KNNStats, error) {
	return db.KNNCtx(context.Background(), q, WithTrace(tr))
}

// KNNTracedCtx is KNNCtx with a positional trace.
//
// Deprecated: use KNNCtx with WithTrace.
func (db *DB) KNNTracedCtx(ctx context.Context, q query.KNN, tr *obs.Trace) ([]Match, *KNNStats, error) {
	return db.KNNCtx(ctx, q, WithTrace(tr))
}

// knnScan is the scan strategy: exact distances for every binary image,
// then a bound-pruned pass over edited images.
func (db *DB) knnScan(ctx context.Context, q query.KNN, tr *obs.Trace) ([]Match, *KNNStats, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	if q.Target.Bins() != db.cfg.Quantizer.Bins() {
		return nil, nil, fmt.Errorf("core: knn target has %d bins, database uses %d", q.Target.Bins(), db.cfg.Quantizer.Bins())
	}
	start := time.Now()
	st := &KNNStats{}
	best := &matchHeap{} // max-heap of current best k
	heap.Init(best)
	push := func(id uint64, d float64) {
		if best.Len() < q.K {
			heap.Push(best, Match{ID: id, Dist: d})
			return
		}
		if m := (Match{ID: id, Dist: d}); worseMatch((*best)[0], m) {
			(*best)[0] = m
			heap.Fix(best, 0)
		}
	}
	threshold := func() float64 {
		if best.Len() < q.K {
			return math.Inf(1)
		}
		return (*best)[0].Dist
	}

	// Exact pass over binary images.
	done := tr.Phase("knn.score-binaries")
	for _, id := range db.cat.Binaries() {
		obj, err := db.cat.Binary(id)
		if errors.Is(err, catalog.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		st.BinariesScored++
		push(id, q.Metric.Distance(q.Target, obj.Hist))
	}
	done()
	mKNNScored.Add(int64(st.BinariesScored))
	tr.Count(obs.TCandidatesExamined, int64(st.BinariesScored))

	// Bound-pruned pass over edited images.
	done = tr.Phase("knn.prune-edited")
	env := db.env()
	ids := db.cat.EditedIDs()
	if workers := db.workers(); workers > 1 && len(ids) > 1 {
		if err := db.knnPruneParallel(ctx, q, ids, workers, best, push, st, tr, env); err != nil {
			return nil, nil, err
		}
	} else {
		for _, id := range ids {
			obj, err := db.cat.Edited(id)
			if errors.Is(err, catalog.ErrNotFound) {
				continue
			}
			if err != nil {
				return nil, nil, err
			}
			bounds, err := db.editedBounds(obj, tr)
			if errors.Is(err, catalog.ErrNotFound) {
				continue
			}
			if err != nil {
				return nil, nil, err
			}
			tr.Count(obs.TCandidatesExamined, 1)
			lb := distanceLowerBound(q.Target, bounds, q.Metric)
			if lb > threshold() {
				st.EditedPruned++
				mKNNPruned.Inc()
				tr.Count(obs.TImagesPruned, 1)
				continue
			}
			img, err := editops.ApplySequence(obj.Seq, env)
			if err != nil {
				return nil, nil, fmt.Errorf("core: knn instantiate %d: %w", id, err)
			}
			st.EditedInstantiated++
			mKNNInstantiated.Inc()
			tr.Count(obs.TEditedInstantiated, 1)
			if img.Size() == 0 {
				continue
			}
			push(id, q.Metric.Distance(q.Target, histogram.Extract(img, db.cfg.Quantizer)))
		}
	}
	done()
	tr.Count(obs.TImagesReturned, int64(best.Len()))

	out := make([]Match, best.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(best).(Match)
	}
	// Ties in distance are broken by id so the output ordering is fully
	// deterministic — and identical between serial and parallel runs.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	db.recordKNNStats("knn:"+q.Metric.String(), time.Since(start), len(out), st)
	return out, st, nil
}

// recordKNNStats feeds the always-on recorder for k-NN answers: latency,
// selectivity (k results over the corpus) and the edited share of the
// candidates scored. The widening fraction does not apply to k-NN.
func (db *DB) recordKNNStats(strategy string, elapsed time.Duration, results int, st *KNNStats) {
	rec := obs.DefaultStats()
	if !rec.Enabled() {
		return
	}
	bins, edited := db.cat.Len()
	sel := -1.0
	if corpus := bins + edited; corpus > 0 {
		sel = float64(results) / float64(corpus)
	}
	editedSeen := st.EditedPruned + st.EditedInstantiated
	editedFrac := -1.0
	if cand := st.BinariesScored + editedSeen; cand > 0 {
		editedFrac = float64(editedSeen) / float64(cand)
	}
	rec.RecordQuery(strategy, elapsed, sel, editedFrac, -1)
}

// thresholdTracker maintains the k-th-best exact distance shared by the
// parallel candidate workers. Exact distances tighten a heap under mu; the
// resulting threshold is mirrored into thBits so the hot pruning path reads
// it with one atomic load instead of taking the lock. The threshold only
// ever decreases, so a stale read prunes less, never incorrectly.
type thresholdTracker struct {
	k      int
	thBits atomic.Uint64 // k-th best distance as float64 bits; +Inf below k
	mu     sync.Mutex
	h      matchHeap // guarded by mu
}

// newThresholdTracker seeds the tracker with the binary pass's exact
// distances so pruning starts tight.
func newThresholdTracker(k int, seed matchHeap) *thresholdTracker {
	t := &thresholdTracker{k: k}
	t.mu.Lock()
	t.h = make(matchHeap, seed.Len())
	copy(t.h, seed)
	heap.Init(&t.h)
	t.storeLocked()
	t.mu.Unlock()
	return t
}

// storeLocked mirrors the current k-th best into thBits. Callers hold mu.
func (t *thresholdTracker) storeLocked() {
	if t.h.Len() < t.k {
		t.thBits.Store(math.Float64bits(math.Inf(1)))
	} else {
		t.thBits.Store(math.Float64bits(t.h[0].Dist))
	}
}

// record folds one exact distance into the tracker.
func (t *thresholdTracker) record(id uint64, d float64) {
	t.mu.Lock()
	if t.h.Len() < t.k {
		heap.Push(&t.h, Match{ID: id, Dist: d})
	} else if m := (Match{ID: id, Dist: d}); worseMatch(t.h[0], m) {
		t.h[0] = m
		heap.Fix(&t.h, 0)
	}
	t.storeLocked()
	t.mu.Unlock()
}

// threshold returns the current pruning threshold.
func (t *thresholdTracker) threshold() float64 {
	return math.Float64frombits(t.thBits.Load())
}

// knnPruneParallel is the fan-out version of the edited-candidate pass.
// Workers prune against a shared threshold maintained in a tracker heap:
// the tracker is seeded with the binary pass's exact distances and
// tightened by every exact distance any worker computes, so its k-th best
// is always ≥ the final k-th distance — pruning against it never discards
// a true neighbor. Each instantiated candidate's exact distance is slotted
// by catalog index and replayed serially into the result heap afterwards.
// Because every candidate the serial pass would instantiate is a subset of
// what the parallel pass instantiates or vice versa only for candidates
// strictly worse than the final k-th distance, the replayed heap is
// identical to the serial one; only the pruned/instantiated statistics may
// differ between runs. The first error cancels the remaining candidate
// evaluations through the pool's context.
func (db *DB) knnPruneParallel(ctx context.Context, q query.KNN, ids []uint64, workers int, best *matchHeap, push func(uint64, float64), st *KNNStats, tr *obs.Trace, env *editops.Env) error {
	tracker := newThresholdTracker(q.K, *best)

	type outcome struct {
		scored bool
		dist   float64
	}
	outs := make([]outcome, len(ids))
	pruned := make([]int, workers)
	instantiated := make([]int, workers)
	pst, err := exec.ForEach(ctx, workers, len(ids), func(w, i int) error {
		id := ids[i]
		obj, err := db.cat.Edited(id)
		if errors.Is(err, catalog.ErrNotFound) {
			return nil
		}
		if err != nil {
			return err
		}
		bounds, err := db.editedBounds(obj, tr)
		if errors.Is(err, catalog.ErrNotFound) {
			return nil
		}
		if err != nil {
			return err
		}
		tr.Count(obs.TCandidatesExamined, 1)
		if distanceLowerBound(q.Target, bounds, q.Metric) > tracker.threshold() {
			pruned[w]++
			mKNNPruned.Inc()
			tr.Count(obs.TImagesPruned, 1)
			return nil
		}
		img, err := editops.ApplySequence(obj.Seq, env)
		if err != nil {
			return fmt.Errorf("core: knn instantiate %d: %w", id, err)
		}
		instantiated[w]++
		mKNNInstantiated.Inc()
		tr.Count(obs.TEditedInstantiated, 1)
		if img.Size() == 0 {
			return nil
		}
		d := q.Metric.Distance(q.Target, histogram.Extract(img, db.cfg.Quantizer))
		outs[i] = outcome{scored: true, dist: d}
		tracker.record(id, d)
		return nil
	})
	pst.Record(tr)
	if err != nil {
		return err
	}
	for w := 0; w < workers; w++ {
		st.EditedPruned += pruned[w]
		st.EditedInstantiated += instantiated[w]
	}
	// Deterministic replay: fold the exact distances into the result heap
	// in catalog order, exactly as the serial loop would have.
	for i := range outs {
		if outs[i].scored {
			push(ids[i], outs[i].dist)
		}
	}
	return nil
}

// KNNMulti is the multiple-query-image technique the paper contrasts with
// database augmentation (§2, citing Tahaghoghi et al., "Are Two Pictures
// Better Than One"): every probe histogram is searched independently and
// the rankings are fused disjunctively — an object's fused distance is its
// minimum distance to any probe. Returns the overall top k. Stats are
// accumulated across the per-probe searches, which makes the cost of the
// approach visible: feature extraction and search run once per probe.
func (db *DB) KNNMulti(targets []*histogram.Histogram, k int, metric query.Metric) ([]Match, *KNNStats, error) {
	return db.KNNMultiCtx(context.Background(), targets, k, metric)
}

// KNNMultiCtx is KNNMulti under the caller's ctx.
func (db *DB) KNNMultiCtx(ctx context.Context, targets []*histogram.Histogram, k int, metric query.Metric) ([]Match, *KNNStats, error) {
	if len(targets) == 0 {
		return nil, nil, fmt.Errorf("core: knn-multi needs at least one probe")
	}
	total := &KNNStats{}
	best := make(map[uint64]float64)
	for _, target := range targets {
		matches, st, err := db.KNNCtx(ctx, query.KNN{Target: target, K: k, Metric: metric})
		if err != nil {
			return nil, nil, err
		}
		total.BinariesScored += st.BinariesScored
		total.EditedPruned += st.EditedPruned
		total.EditedInstantiated += st.EditedInstantiated
		for _, m := range matches {
			if d, ok := best[m.ID]; !ok || m.Dist < d {
				best[m.ID] = m.Dist
			}
		}
	}
	out := make([]Match, 0, len(best))
	for id, d := range best {
		out = append(out, Match{ID: id, Dist: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out, total, nil
}

// KNNBinary ranks only binary images: one scan over the stored histograms,
// ordered by (dist, id), for every metric. An image deleted mid-scan is
// skipped, like in every other scan.
func (db *DB) KNNBinary(q query.KNN) ([]Match, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.Target.Bins() != db.cfg.Quantizer.Bins() {
		return nil, fmt.Errorf("core: knn target has %d bins, database uses %d", q.Target.Bins(), db.cfg.Quantizer.Bins())
	}
	var out []Match
	for _, id := range db.cat.Binaries() {
		obj, err := db.cat.Binary(id)
		if errors.Is(err, catalog.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, Match{ID: id, Dist: q.Metric.Distance(q.Target, obj.Hist)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > q.K {
		out = out[:q.K]
	}
	return out, nil
}

// distanceLowerBound computes a provable lower bound on Metric(target, h)
// over every histogram h compatible with the per-bin bounds. Per bin, the
// normalized value must lie in [Min/Total, Max/Total]; the distance
// contribution is minimized at the interval point closest to the target's
// value.
func distanceLowerBound(target *histogram.Histogram, bounds []rules.Bounds, metric query.Metric) float64 {
	tn := target.Normalized()
	switch metric {
	case query.MetricL1, query.MetricL2:
		sum := 0.0
		for i, b := range bounds {
			lo, hi := b.PctRange()
			d := 0.0
			switch {
			case tn[i] < lo:
				d = lo - tn[i]
			case tn[i] > hi:
				d = tn[i] - hi
			}
			if metric == query.MetricL1 {
				sum += d
			} else {
				sum += d * d
			}
		}
		if metric == query.MetricL1 {
			return sum
		}
		return math.Sqrt(sum)
	case query.MetricIntersection:
		// Intersection is maximized by clamping the target into each bin's
		// range: Σ min(t_i, hi_i) bounds Σ min(t_i, h_i) from above, so
		// 1 − that bounds the distance from below.
		s := 0.0
		for i, b := range bounds {
			_, hi := b.PctRange()
			s += math.Min(tn[i], hi)
		}
		lb := 1 - s
		if lb < 0 {
			lb = 0
		}
		return lb
	default:
		return 0
	}
}

// worseMatch orders matches by (dist, id) descending lexicographically —
// the total order the whole kNN path uses. Breaking distance ties by id
// makes the kept top-k a true k-minimum of a total order, which is what
// lets a cluster coordinator merge per-shard top-k heaps and provably get
// the same set a single node would keep.
func worseMatch(a, b Match) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.ID > b.ID
}

// matchHeap is a max-heap on (dist, id) (root = worst of the best k).
type matchHeap []Match

func (h matchHeap) Len() int            { return len(h) }
func (h matchHeap) Less(i, j int) bool  { return worseMatch(h[i], h[j]) }
func (h matchHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *matchHeap) Push(x interface{}) { *h = append(*h, x.(Match)) }
func (h *matchHeap) Pop() interface{} {
	old := *h
	n := len(old)
	m := old[n-1]
	*h = old[:n-1]
	return m
}

// BICIndex builds a Border/Interior Classification search index (Stehling
// et al., the paper's reference [21]) over the database's binary images —
// the "color representation without histograms" the paper's future-work
// section asks about. The index is a point-in-time snapshot; rebuild after
// inserts.
func (db *DB) BICIndex() (*signature.Index, error) {
	idx := signature.NewIndex(db.cfg.Quantizer)
	for _, id := range db.cat.Binaries() {
		img, err := db.binaryRaster(id)
		if err != nil {
			return nil, err
		}
		idx.Add(id, img)
	}
	return idx, nil
}

// WithinDistance returns every object whose histogram lies within dist of
// the target under the metric — the range-flavored similarity query.
// Binary images are tested exactly; edited images are pruned on their
// bound-derived lower bound and instantiated only when the lower bound is
// within range.
func (db *DB) WithinDistance(target *histogram.Histogram, dist float64, metric query.Metric) ([]Match, *KNNStats, error) {
	return db.WithinDistanceCtx(context.Background(), target, dist, metric)
}

// WithinDistanceCtx is WithinDistance under the caller's ctx.
func (db *DB) WithinDistanceCtx(ctx context.Context, target *histogram.Histogram, dist float64, metric query.Metric) ([]Match, *KNNStats, error) {
	if target == nil {
		return nil, nil, fmt.Errorf("core: within-distance target histogram is nil")
	}
	if target.Bins() != db.cfg.Quantizer.Bins() {
		return nil, nil, fmt.Errorf("core: target has %d bins, database uses %d", target.Bins(), db.cfg.Quantizer.Bins())
	}
	if dist < 0 {
		return nil, nil, fmt.Errorf("core: negative distance %v", dist)
	}
	st := &KNNStats{}
	var out []Match
	for _, id := range db.cat.Binaries() {
		obj, err := db.cat.Binary(id)
		if err != nil {
			return nil, nil, err
		}
		st.BinariesScored++
		if d := metric.Distance(target, obj.Hist); d <= dist {
			out = append(out, Match{ID: id, Dist: d})
		}
	}
	// The distance threshold is fixed, so edited candidates are independent
	// of each other and the walk fans out freely; per-index slots keep the
	// merged output identical to the serial loop.
	env := db.env()
	ids := db.cat.EditedIDs()
	workers := db.workers()
	type wdOutcome struct {
		in   bool
		dist float64
	}
	outs := make([]wdOutcome, len(ids))
	pruned := make([]int, workers)
	instantiated := make([]int, workers)
	if _, err := exec.ForEach(ctx, workers, len(ids), func(w, i int) error {
		obj, err := db.cat.Edited(ids[i])
		if errors.Is(err, catalog.ErrNotFound) {
			return nil
		}
		if err != nil {
			return err
		}
		bounds, err := db.editedBounds(obj, nil)
		if errors.Is(err, catalog.ErrNotFound) {
			return nil
		}
		if err != nil {
			return err
		}
		if distanceLowerBound(target, bounds, metric) > dist {
			pruned[w]++
			return nil
		}
		img, err := editops.ApplySequence(obj.Seq, env)
		if err != nil {
			return fmt.Errorf("core: within-distance instantiate %d: %w", ids[i], err)
		}
		instantiated[w]++
		if img.Size() == 0 {
			return nil
		}
		if d := metric.Distance(target, histogram.Extract(img, db.cfg.Quantizer)); d <= dist {
			outs[i] = wdOutcome{in: true, dist: d}
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	for w := 0; w < workers; w++ {
		st.EditedPruned += pruned[w]
		st.EditedInstantiated += instantiated[w]
	}
	for i := range outs {
		if outs[i].in {
			out = append(out, Match{ID: ids[i], Dist: outs[i].dist})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out, st, nil
}
