package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/colorspace"
	"repro/internal/query"
	"repro/internal/rbm"
	"repro/internal/rules"
	"repro/internal/stree"
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

// RangeQueryMultiCtx answers a multi-bin range query under ctx, with
// options selecting the execution mode, tracing, and result limit. Modes:
// ModeRBM walks every edited sequence once (all bins share one BoundsAll
// walk), ModeBWM applies the cluster skip, ModeInstantiate materializes,
// ModeIndexed descends the S-tree once with multiTerm's box test, pruning
// subtrees whose summed union box provably misses.
func (db *DB) RangeQueryMultiCtx(ctx context.Context, q query.MultiRange, opts ...QueryOption) (*rbm.Result, error) {
	cfg := buildQueryConfig(opts)
	if err := q.Validate(db.cfg.Quantizer.Bins()); err != nil {
		return nil, err
	}
	return db.dispatch(ctx, cfg, []pagedTerm{db.multiTerm(q)}, query.And)
}

// RangeQueryColorFamilyCtx resolves a named color's bin family and runs the
// multi-bin query under ctx: "at least 25% blue-ish". Options select the
// execution mode, tracing, and result limit.
func (db *DB) RangeQueryColorFamilyCtx(ctx context.Context, name string, pctMin, pctMax float64, opts ...QueryOption) (*rbm.Result, error) {
	bins, err := colorspace.FamilyForName(name, db.cfg.Quantizer)
	if err != nil {
		return nil, err
	}
	return db.RangeQueryMultiCtx(ctx, query.MultiRange{Bins: bins, PctMin: pctMin, PctMax: pctMax}, opts...)
}

// multiTerm is a multi-bin predicate. Its box test sums the box over the
// query's bins in floats, with sidxSumEps of slack on the Full/None
// margins; an item it leaves Partial is re-checked exactly, on the catalog
// histogram of a binary image or the integer-summed bounds of an edited
// one, so float drift can cost a node descent, never a wrong answer.
func (db *DB) multiTerm(q query.MultiRange) pagedTerm {
	return pagedTerm{
		exact: q.MatchesExact,
		walk: func(obj, base *catalog.Object, st *rbm.Stats) (bool, error) {
			return db.multiCheckEdited(obj, base, q, st)
		},
		box: func(b stree.Boxes, out []stree.Overlap) {
			for i := range out {
				var sLo, sHi float64
				for _, bin := range q.Bins {
					sLo += b.Lo(bin)[i]
					sHi += b.Hi(bin)[i]
				}
				switch {
				case sLo > q.PctMax+sidxSumEps || sHi < q.PctMin-sidxSumEps:
					out[i] = stree.OverlapNone
				case sHi <= q.PctMax-sidxSumEps && sLo >= q.PctMin+sidxSumEps:
					out[i] = stree.OverlapFull
				default:
					out[i] = stree.OverlapPartial
				}
			}
		},
		item: func(l *stree.Leaf, i int, ov stree.Overlap, st *rbm.Stats) (bool, error) {
			kind := l.Kind(i)
			switch {
			case ov == stree.OverlapFull:
				return sidxAdmit(kind, ov, st), nil
			case kind == sidxBinary:
				obj, err := db.cat.Binary(l.ID(i))
				if errors.Is(err, catalog.ErrNotFound) {
					return false, nil
				}
				if err != nil {
					return false, err
				}
				st.BinariesChecked++
				ok := q.MatchesExact(obj.Hist)
				if ok {
					st.BaseMatches++
				}
				return ok, nil
			case kind == sidxEdited:
				lo, hi := l.Data(i).(*sidxEntry).sumPct(q.Bins)
				return lo <= q.PctMax && hi >= q.PctMin, nil
			}
			b, err := db.editedBoundsByID(l.ID(i), st)
			if b == nil {
				return false, err
			}
			lo, hi := sumBounds(b, q.Bins)
			return lo <= q.PctMax && hi >= q.PctMin, nil
		},
	}
}

// multiCheckEdited is the multi-bin rule verdict: one BoundsAll walk of an
// edited image over its base, the per-bin intervals summed over the query's
// bins.
func (db *DB) multiCheckEdited(obj, base *catalog.Object, q query.MultiRange, st *rbm.Stats) (bool, error) {
	bs, err := db.editedBounds(obj, base, st)
	if errors.Is(err, catalog.ErrNotFound) {
		return false, nil // a Merge target is only deletable once this version of the image is gone
	}
	if err != nil {
		return false, fmt.Errorf("core: edited %d: %w", obj.ID, err)
	}
	lo, hi := sumBounds(bs, q.Bins)
	return lo <= q.PctMax && hi >= q.PctMin, nil
}
