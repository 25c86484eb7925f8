package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/colorspace"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rbm"
	"repro/internal/rules"
)

// Multi-bin ("color family") range queries. A perceptual color spans
// several histogram bins under fine quantizers; these queries constrain the
// SUM of percentages over a bin set. The paper's machinery lifts soundly:
//
//   - Bounds: the true sum lies in [Σ BOUNDmin_i, Σ BOUNDmax_i] because
//     every per-bin count does (rule soundness) and sums of intervals
//     bound sums of members.
//   - BWM skip: per-bin widening means each bin's percentage interval only
//     grows, so the interval of the sum only grows; if the base image's
//     exact sum satisfies the query, a widening-only edited image's sum
//     interval must intersect it.

// sumBounds folds per-bin bounds into a percentage interval for the set.
func sumBounds(bs []rules.Bounds, bins []int) (lo, hi float64) {
	if len(bs) == 0 {
		return 0, 0
	}
	minSum, maxSum := 0, 0
	for _, b := range bins {
		minSum += bs[b].Min
		maxSum += bs[b].Max
	}
	return pctInterval(minSum, maxSum, bs[0].Total)
}

// pctInterval turns summed count bounds into the percentage interval of the
// sum; no sum of bins exceeds the image.
func pctInterval(minSum, maxSum, total int) (lo, hi float64) {
	if total == 0 {
		return 0, 0
	}
	if maxSum > total {
		maxSum = total
	}
	t := float64(total)
	return float64(minSum) / t, float64(maxSum) / t
}

// RangeQueryMulti answers a multi-bin range query. Modes: ModeRBM walks
// every edited sequence once (all bins share one BoundsAll walk), ModeBWM
// applies the cluster skip, ModeInstantiate materializes, ModeIndexed prunes
// subtrees whose summed union box provably misses.
//
// Deprecated: use RangeQueryMultiCtx.
func (db *DB) RangeQueryMulti(q query.MultiRange, mode Mode) (*rbm.Result, error) {
	return db.RangeQueryMultiCtx(context.Background(), q, mode)
}

// RangeQueryMultiCtx is the canonical multi-bin entry point: ctx-aware,
// with options selecting the execution mode, tracing, and result limit.
func (db *DB) RangeQueryMultiCtx(ctx context.Context, q query.MultiRange, opts ...QueryOption) (*rbm.Result, error) {
	cfg := buildQueryConfig(opts)
	if cfg.stopsEarly() {
		if err := q.Validate(db.cfg.Quantizer.Bins()); err != nil {
			return nil, err
		}
		return db.pagedDispatch(ctx, []pagedTerm{db.multiTerm(q)}, query.And, "multi:"+cfg.Mode.String(), cfg)
	}
	res, err := db.multiDispatch(ctx, q, cfg.Mode, cfg.Trace)
	if err != nil {
		return nil, err
	}
	return applyPage(res, cfg), nil
}

// RangeQueryMultiTraced is RangeQueryMulti with decision counts and phase
// timings recorded into tr (nil disables tracing).
//
// Deprecated: use RangeQueryMultiCtx with WithTrace.
func (db *DB) RangeQueryMultiTraced(q query.MultiRange, mode Mode, tr *obs.Trace) (*rbm.Result, error) {
	return db.RangeQueryMultiCtx(context.Background(), q, mode, WithTrace(tr))
}

// RangeQueryMultiTracedCtx is RangeQueryMultiCtx with a positional mode and
// trace.
//
// Deprecated: use RangeQueryMultiCtx with WithTrace.
func (db *DB) RangeQueryMultiTracedCtx(ctx context.Context, q query.MultiRange, mode Mode, tr *obs.Trace) (*rbm.Result, error) {
	return db.RangeQueryMultiCtx(ctx, q, mode, WithTrace(tr))
}

// multiDispatch is the mode switch behind every multi-bin entry point.
func (db *DB) multiDispatch(ctx context.Context, q query.MultiRange, mode Mode, tr *obs.Trace) (*rbm.Result, error) {
	if err := q.Validate(db.cfg.Quantizer.Bins()); err != nil {
		return nil, err
	}
	if err := db.walQueryBarrier(ctx, tr); err != nil {
		return nil, err
	}
	start := time.Now()
	var res *rbm.Result
	var err error
	switch mode {
	case ModeRBM:
		res, err = db.multiWalk(ctx, q, tr)
	case ModeBWM:
		res, err = db.multiBWM(ctx, q, tr)
	case ModeInstantiate:
		res, err = db.multiInstantiate(ctx, q)
	case ModeIndexed:
		res, err = db.multiSTree(ctx, q, tr)
	default:
		return nil, fmt.Errorf("core: unknown mode %d", uint8(mode))
	}
	if err != nil {
		return nil, err
	}
	bins, edited := db.cat.Len()
	db.recordQueryStats("multi:"+mode.String(), time.Since(start), res, bins+edited)
	return res, nil
}

// RangeQueryColorFamily resolves a named color's bin family and runs the
// multi-bin query: "at least 25% blue-ish".
//
// Deprecated: use RangeQueryColorFamilyCtx.
func (db *DB) RangeQueryColorFamily(name string, pctMin, pctMax float64, mode Mode) (*rbm.Result, error) {
	return db.RangeQueryColorFamilyCtx(context.Background(), name, pctMin, pctMax, mode)
}

// RangeQueryColorFamilyCtx is RangeQueryColorFamily under the caller's ctx;
// options select the execution mode, tracing, and result limit.
func (db *DB) RangeQueryColorFamilyCtx(ctx context.Context, name string, pctMin, pctMax float64, opts ...QueryOption) (*rbm.Result, error) {
	bins, err := colorspace.FamilyForName(name, db.cfg.Quantizer)
	if err != nil {
		return nil, err
	}
	return db.RangeQueryMultiCtx(ctx, query.MultiRange{Bins: bins, PctMin: pctMin, PctMax: pctMax}, opts...)
}

// multiWalk is the RBM-shaped scan: one BoundsAll walk per edited image.
func (db *DB) multiWalk(ctx context.Context, q query.MultiRange, tr *obs.Trace) (*rbm.Result, error) {
	res := &rbm.Result{}
	done := tr.Phase("multi.scan-binaries")
	for _, id := range db.cat.Binaries() {
		obj, err := db.cat.Binary(id)
		if errors.Is(err, catalog.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		res.Stats.BinariesChecked++
		if q.MatchesExact(obj.Hist) {
			res.IDs = append(res.IDs, id)
			tr.Count(obs.TBaseMatches, 1)
		}
	}
	done()
	done = tr.Phase("multi.walk-edited")
	matched, st, err := db.filterEdited(ctx, db.cat.EditedIDs(), tr, func(id uint64, st *rbm.Stats) (bool, error) {
		return db.multiCheckEdited(id, q, st, tr)
	})
	if err != nil {
		return nil, err
	}
	res.IDs = append(res.IDs, matched...)
	res.Stats.Add(st)
	done()
	sort.Slice(res.IDs, func(i, j int) bool { return res.IDs[i] < res.IDs[j] })
	return res, nil
}

func (db *DB) multiCheckEdited(id uint64, q query.MultiRange, st *rbm.Stats, tr *obs.Trace) (bool, error) {
	obj, err := db.cat.Edited(id)
	if errors.Is(err, catalog.ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	bs, err := db.editedBounds(obj, tr)
	if errors.Is(err, catalog.ErrNotFound) {
		return false, nil // base deleted mid-query
	}
	if err != nil {
		return false, err
	}
	st.EditedWalked++
	st.OpsEvaluated += len(obj.Seq.Ops)
	lo, hi := sumBounds(bs, q.Bins)
	return lo <= q.PctMax && hi >= q.PctMin, nil
}

// multiBWM applies the cluster-skip: widening-only members of clusters
// whose base's exact SUM satisfies the query are admitted rule-free.
func (db *DB) multiBWM(ctx context.Context, q query.MultiRange, tr *obs.Trace) (*rbm.Result, error) {
	res := &rbm.Result{}
	matched := make(map[uint64]bool)
	done := tr.Phase("multi.scan-binaries")
	for _, baseID := range db.cat.Binaries() {
		obj, err := db.cat.Binary(baseID)
		if errors.Is(err, catalog.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		res.Stats.BinariesChecked++
		if q.MatchesExact(obj.Hist) {
			matched[baseID] = true
			res.IDs = append(res.IDs, baseID)
			tr.Count(obs.TBaseMatches, 1)
		}
	}
	done()
	// matched is read-only from here on, so the edited walk can fan out.
	done = tr.Phase("multi.walk-edited")
	hits, st, err := db.filterEdited(ctx, db.cat.EditedIDs(), tr, func(id uint64, st *rbm.Stats) (bool, error) {
		obj, err := db.cat.Edited(id)
		if errors.Is(err, catalog.ErrNotFound) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		if obj.Widening && matched[obj.Seq.BaseID] {
			st.EditedSkipped++
			mFastPathAdmitted.Inc()
			tr.Count(obs.TFastPathAdmitted, 1)
			return true, nil
		}
		return db.multiCheckEdited(id, q, st, tr)
	})
	if err != nil {
		return nil, err
	}
	res.IDs = append(res.IDs, hits...)
	res.Stats.Add(st)
	done()
	sort.Slice(res.IDs, func(i, j int) bool { return res.IDs[i] < res.IDs[j] })
	return res, nil
}

// multiInstantiate is the exact ground truth.
func (db *DB) multiInstantiate(ctx context.Context, q query.MultiRange) (*rbm.Result, error) {
	res := &rbm.Result{}
	for _, id := range db.cat.Binaries() {
		obj, err := db.cat.Binary(id)
		if errors.Is(err, catalog.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		res.Stats.BinariesChecked++
		if q.MatchesExact(obj.Hist) {
			res.IDs = append(res.IDs, id)
		}
	}
	env := db.env()
	matched, st, err := db.filterEdited(ctx, db.cat.EditedIDs(), nil, func(id uint64, st *rbm.Stats) (bool, error) {
		obj, err := db.cat.Edited(id)
		if errors.Is(err, catalog.ErrNotFound) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		return db.instantiateMatches(obj, env, q.MatchesExact, st, nil)
	})
	if err != nil {
		return nil, err
	}
	res.IDs = append(res.IDs, matched...)
	res.Stats.Add(st)
	sort.Slice(res.IDs, func(i, j int) bool { return res.IDs[i] < res.IDs[j] })
	return res, nil
}
