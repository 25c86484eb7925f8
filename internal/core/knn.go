package core

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rbm"
	"repro/internal/signature"
	"repro/internal/stree"
)

// Process-wide k-NN counters: how many edited images the bound-based lower
// bound pruned versus how many had to be instantiated.
var (
	mKNNScored       = obs.Default().Counter("esidb_knn_binaries_scored_total")
	mKNNPruned       = obs.Default().Counter("esidb_knn_edited_pruned_total")
	mKNNInstantiated = obs.Default().Counter("esidb_knn_edited_instantiated_total")
)

// k-NN similarity search — the paper's future-work extension (§6) — has one
// path, served from the bounds S-tree in every mode. A best-first descent
// scores the binary images of every leaf it reaches: a binary leaf is the
// point box of its normalized histogram, so boxLowerBound on it IS the exact
// distance, bit for bit, and the k-th distance is set before anything is
// rendered. Edited images are collected with the lower bound their leaf box
// yields, unless they already lose. The survivors are refined — instantiated
// for their exact distance — in ascending (lb, id) order until the head of
// the list can no longer enter the top k.
//
// "Lose" is decided in the (dist, id) total order the answer is defined by
// (worseMatch). A candidate's exact distance is never below its lower bound
// as floats (same terms, same summation order), so its rank (dist, id) is
// never better than (lb, id): once (lb, id) is not better than the current
// k-th match the candidate cannot displace it, and the k-th only improves.
// Pruning on the pair rather than on lb > dist is what keeps a probe that
// ties with k stored images from instantiating every edited image whose box
// contains it just to lose on id.

// knnRefineBatch is how many edited candidates are instantiated between two
// reads of the k-th match. Within a batch the workers never look at the
// threshold and the exact distances are recorded in list order afterwards,
// so the answer and KNNStats are the same for every worker count; the price
// is at most one batch of instantiations past the stopping point.
const knnRefineBatch = 64

// Match is one k-NN result.
type Match struct {
	ID   uint64
	Dist float64
}

// KNNStats instruments a k-NN or within-distance execution.
type KNNStats struct {
	// BinariesScored is the number of exact binary distances computed: the
	// binary images in the leaves the descent reached.
	BinariesScored int
	// EditedPruned is the number of edited images in the database that were
	// not instantiated — their subtree, their own lower bound or the
	// refinement order ruled them out.
	EditedPruned int
	// EditedInstantiated is the number of edited images materialized for
	// an exact distance.
	EditedInstantiated int
}

// KNNCtx is the k-NN entry point: the k objects most similar to the query
// histogram, across binary and edited images, in (dist, id) order. ctx
// cancellation stops the descent and the refinement. WithTrace and WithLimit
// apply; WithMode is accepted and ignored — there is one k-NN path.
func (db *DB) KNNCtx(ctx context.Context, q query.KNN, opts ...QueryOption) ([]Match, *KNNStats, error) {
	cfg := buildQueryConfig(opts)
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	tracker := newThresholdTracker(q.K)
	st, err := db.similaritySearch(ctx, q.Target, q.Metric, tracker, cfg.Trace)
	if err != nil {
		return nil, nil, err
	}
	out := tracker.matches()
	cfg.Trace.Count(obs.TImagesReturned, int64(len(out)))
	db.recordKNNStats("knn:"+q.Metric.String(), time.Since(start), len(out), st)
	if cfg.Limit > 0 && len(out) > cfg.Limit {
		out = out[:cfg.Limit:cfg.Limit]
	}
	return out, st, nil
}

// similarityBound is what a similarity search prunes against: the k-th best
// match so far (thresholdTracker) or a fixed radius (radiusBound).
type similarityBound interface {
	// worse reports whether a candidate that can rank no better than
	// (lb, id) is already out of the answer. It is monotone in the (lb, id)
	// order, which is what lets the descent prune a whole subtree on its
	// (lower bound, smallest id) pair.
	worse(lb float64, id uint64) bool
	// record offers one exact distance to the answer.
	record(id uint64, d float64)
}

// knnCand is an edited image the descent could not rule out.
type knnCand struct {
	id     uint64
	lb     float64 // boxLowerBound of its leaf box
	dist   float64 // exact distance, set by refinement when scored
	scored bool
}

// similaritySearch is the one descent-and-refine pass behind KNNCtx and
// WithinDistanceCtx; the answer accumulates in bound.
func (db *DB) similaritySearch(ctx context.Context, target *histogram.Histogram, metric query.Metric, bound similarityBound, tr *obs.Trace) (*KNNStats, error) {
	if target == nil {
		return nil, fmt.Errorf("core: similarity target histogram is nil")
	}
	if target.Bins() != db.cfg.Quantizer.Bins() {
		return nil, fmt.Errorf("core: similarity target has %d bins, database uses %d", target.Bins(), db.cfg.Quantizer.Bins())
	}
	if err := metric.Validate(); err != nil {
		return nil, err
	}
	if err := db.ensureSearchIndex(tr); err != nil {
		return nil, err
	}
	st := &KNNStats{}
	_, edited := db.cat.Len()

	done := tr.Phase("knn.descend")
	tn := target.Normalized()
	var cands []knnCand
	var vst stree.VisitStats
	seen := 0
	err := db.sidx.Snapshot().BestFirst(
		func(lo, hi []float64) float64 { return boxLowerBound(tn, lo, hi, metric) },
		bound.worse,
		func(it *stree.Item) error {
			seen++
			if seen%ctxEvery == 0 {
				if cerr := ctx.Err(); cerr != nil {
					return cerr
				}
			}
			lb := boxLowerBound(tn, it.Lo, it.Hi, metric)
			if !it.Data.(*sidxEntry).edited {
				st.BinariesScored++
				bound.record(it.ID, lb) // a point box: lb is the exact distance
			} else if !bound.worse(lb, it.ID) {
				cands = append(cands, knnCand{id: it.ID, lb: lb})
			}
			return nil
		}, &vst)
	done()
	if err != nil {
		return nil, err
	}
	recordIndexVisit(tr, vst)
	tr.Count(obs.TCandidatesExamined, int64(st.BinariesScored+len(cands)))

	done = tr.Phase("knn.refine")
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].lb != cands[j].lb {
			return cands[i].lb < cands[j].lb
		}
		return cands[i].id < cands[j].id
	})
	// The list ascends in (lb, id) and the bound only tightens, so whatever
	// already loses when a batch is cut loses for good, and a batch that
	// starts with a loser ends the refinement.
	for len(cands) > 0 {
		batch := cands[:min(knnRefineBatch, len(cands))]
		batch = batch[:sort.Search(len(batch), func(i int) bool { return bound.worse(batch[i].lb, batch[i].id) })]
		if len(batch) == 0 {
			break
		}
		cands = cands[len(batch):]
		n, err := db.exactDistances(ctx, target, metric, batch, tr)
		if err != nil {
			return nil, err
		}
		st.EditedInstantiated += n
		for i := range batch {
			if batch[i].scored {
				bound.record(batch[i].id, batch[i].dist)
			}
		}
	}
	done()

	// Everything in the database that was not rendered counts as pruned. The
	// count is the catalog's, not the snapshot's, so a delete racing the
	// query could push the difference below zero.
	st.EditedPruned = max(0, edited-st.EditedInstantiated)
	mKNNScored.Add(int64(st.BinariesScored))
	mKNNPruned.Add(int64(st.EditedPruned))
	mKNNInstantiated.Add(int64(st.EditedInstantiated))
	tr.Count(obs.TImagesPruned, int64(st.EditedPruned))
	return st, nil
}

// exactDistances instantiates one batch of candidates on the worker pool and
// fills in each one's exact distance. A candidate deleted since the tree
// snapshot, or whose instantiation is empty, stays unscored. Returns how
// many were instantiated.
func (db *DB) exactDistances(ctx context.Context, target *histogram.Histogram, metric query.Metric, batch []knnCand, tr *obs.Trace) (int, error) {
	workers := db.workers()
	env := db.env()
	inst := make([]rbm.Stats, max(1, workers))
	pst, err := exec.ForEach(ctx, workers, len(batch), func(w, i int) error {
		c := &batch[i]
		obj, err := db.cat.Edited(c.id)
		if errors.Is(err, catalog.ErrNotFound) {
			return nil
		}
		if err != nil {
			return err
		}
		c.scored, err = db.instantiateMatches(obj, env, func(h *histogram.Histogram) bool {
			c.dist = metric.Distance(target, h)
			return true
		}, &inst[w], tr)
		return err
	})
	if pst.Workers > 1 {
		pst.Record(tr)
	}
	if err != nil {
		return 0, err
	}
	n := 0
	for _, s := range inst {
		n += s.EditedWalked
	}
	return n, nil
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

// thresholdTracker is the k-NN similarityBound: the best k matches seen so
// far, as a max-heap whose root is the k-th. Only the query's own goroutine
// touches it — the descent is serial and refinement records between batches
// — so it needs no synchronization.
type thresholdTracker struct {
	k int
	h matchHeap
}

func newThresholdTracker(k int) *thresholdTracker { return &thresholdTracker{k: k} }

// worse reports whether (lb, id) is not better than the current k-th match
// in the (dist, id) order.
func (t *thresholdTracker) worse(lb float64, id uint64) bool {
	return t.h.Len() == t.k && !worseMatch(t.h[0], Match{ID: id, Dist: lb})
}

// record folds one exact distance into the tracker.
func (t *thresholdTracker) record(id uint64, d float64) {
	m := Match{ID: id, Dist: d}
	if t.h.Len() < t.k {
		heap.Push(&t.h, m)
	} else if worseMatch(t.h[0], m) {
		t.h[0] = m
		heap.Fix(&t.h, 0)
	}
}

// matches extracts the tracker's current best-k, ordered by (dist, id)
// ascending.
func (t *thresholdTracker) matches() []Match {
	out := make([]Match, t.h.Len())
	copy(out, t.h)
	sortMatches(out)
	return out
}

// sortMatches orders matches by (dist, id) ascending — the total order
// every similarity answer is returned in.
func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool { return worseMatch(ms[j], ms[i]) })
}

// radiusBound is the within-distance similarityBound: a fixed radius, every
// exact distance inside it kept.
type radiusBound struct {
	radius float64
	out    []Match
}

func (r *radiusBound) worse(lb float64, _ uint64) bool { return lb > r.radius }
func (r *radiusBound) record(id uint64, d float64) {
	if d <= r.radius {
		r.out = append(r.out, Match{ID: id, Dist: d})
	}
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
	sortMatches(out)
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
	sortMatches(out)
	if len(out) > q.K {
		out = out[:q.K]
	}
	return out, nil
}

// boxLowerBound is a lower bound on Metric.Distance(target, h) over every
// histogram h whose normalized vector lies in the [lo,hi] box — an S-tree
// node's union box, an edited image's bounds box, or a binary image's point
// box, for which it is the distance itself. tn is the target's normalized
// vector. For L1/L2 it is the point-to-box distance; for Intersection it is
// 1 − Σ min(t_i, hi_i). Each term is the corresponding term of the exact
// distance with h_i moved to the nearest point of [lo_i,hi_i], summed in the
// same order with the same operations, so the bound never exceeds the exact
// distance even in the last bit — the property the (lb, id) tie rule rests
// on. That is also why the Intersection form is not clamped at zero: the
// exact 1 − Σ min can itself round below zero.
func boxLowerBound(tn []float64, lo, hi []float64, metric query.Metric) float64 {
	switch metric {
	case query.MetricL1, query.MetricL2:
		sum := 0.0
		for i := range tn {
			d := 0.0
			switch {
			case tn[i] < lo[i]:
				d = lo[i] - tn[i]
			case tn[i] > hi[i]:
				d = tn[i] - hi[i]
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
		s := 0.0
		for i := range tn {
			s += math.Min(tn[i], hi[i])
		}
		return 1 - s
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
// the target under the metric — the range-flavored similarity query, in
// (dist, id) order. It is the k-NN descent with a fixed radius in place of
// the k-th distance: binary images are tested exactly from their leaves,
// edited images are instantiated only when their lower bound is within
// range.
func (db *DB) WithinDistance(target *histogram.Histogram, dist float64, metric query.Metric) ([]Match, *KNNStats, error) {
	return db.WithinDistanceCtx(context.Background(), target, dist, metric)
}

// WithinDistanceCtx is WithinDistance under the caller's ctx.
func (db *DB) WithinDistanceCtx(ctx context.Context, target *histogram.Histogram, dist float64, metric query.Metric) ([]Match, *KNNStats, error) {
	if !(dist >= 0) {
		return nil, nil, fmt.Errorf("core: distance %v is negative or NaN", dist)
	}
	within := &radiusBound{radius: dist}
	st, err := db.similaritySearch(ctx, target, metric, within, nil)
	if err != nil {
		return nil, nil, err
	}
	sortMatches(within.out)
	return within.out, st, nil
}
