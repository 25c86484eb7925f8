package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"

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

// multiTerm is a multi-bin predicate. Its box tests sum the boxes over
// the query's bins column-wise, in the query's bin order (binSums), and
// decide from those sums: a node or item box is None or Full with
// sidxSumEps of slack on the margins, else Partial; a leaf's items are
// decided from the same sums (DESIGN §15):
//
//   - a binary item's box is the point of its normalized histogram, and
//     its sum adds the floats query.MultiRange.SumPct adds, in the same
//     order — so it is the exact test, with no catalog lookup;
//   - an edited item is in when sLo ≤ PctMax−ε and sHi ≥ PctMin+ε: the
//     float sums sit far nearer than ε to the integer-summed interval, so
//     that interval overlaps the query too — the paper's admission test.
//     Only an item inside the ε band re-checks on those integers
//     (sidxEntry.sumPct);
//   - an item with the universal box pays the rule walk.
//
// So float drift can cost a node descent or an exact re-check, never a
// wrong answer.
func (db *DB) multiTerm(q query.MultiRange) pagedTerm {
	bs := &binSums{bins: q.Bins}
	return pagedTerm{
		exact: q.MatchesExact,
		walk: func(obj, base *catalog.Object, st *rbm.Stats) (bool, error) {
			return db.multiCheckEdited(obj, base, q, st)
		},
		box: func(b stree.Boxes, out []stree.Overlap) {
			sLo, sHi := bs.sum(b)
			for i := range out {
				switch {
				case sLo[i] > q.PctMax+sidxSumEps || sHi[i] < q.PctMin-sidxSumEps:
					out[i] = stree.OverlapNone
				case sHi[i] <= q.PctMax-sidxSumEps && sLo[i] >= q.PctMin+sidxSumEps:
					out[i] = stree.OverlapFull
				default:
					out[i] = stree.OverlapPartial
				}
			}
		},
		leaf: func(l *stree.Leaf, ov []stree.Overlap, in uint64, st *rbm.Stats) (uint64, error) {
			var sLo, sHi []float64
			if ov != nil {
				sLo, sHi = bs.sum(l.Boxes())
			}
			out := in
			for m := in; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				kind := l.Kind(i)
				ok := true
				switch {
				case ov == nil || ov[i] == stree.OverlapFull:
					sidxAdmit(kind, true, st)
				case kind == sidxBinary:
					st.BinariesChecked++
					if ok = sLo[i] >= q.PctMin && sLo[i] <= q.PctMax; ok {
						st.BaseMatches++
					}
				case kind == sidxEdited:
					if sLo[i] > q.PctMax-sidxSumEps || sHi[i] < q.PctMin+sidxSumEps {
						lo, hi := l.Data(i).(*sidxEntry).sumPct(q.Bins)
						ok = lo <= q.PctMax && hi >= q.PctMin
					}
				default:
					b, err := db.editedBoundsByID(l.ID(i), st)
					if err != nil {
						return 0, err
					}
					lo, hi := sumBounds(b, q.Bins)
					ok = b != nil && lo <= q.PctMax && hi >= q.PctMin
				}
				if !ok {
					out &^= 1 << i
				}
			}
			return out, nil
		},
	}
}

// binSums sums boxes over a bin set column-wise: box i's sums start at 0
// and add its bounds bin by bin in the set's order, the order
// query.MultiRange.SumPct adds a histogram's percentages in. It keeps the
// last sums it made, so a leaf's items decided right after their boxes
// were classified are not summed again.
type binSums struct {
	bins []int
	// sums holds the last sums, every box's lo sum and then every hi sum;
	// of is the first cell of the first summed lo column, which names the
	// boxes they belong to (a node's columns are its own allocation).
	sums []float64
	of   *float64
	// buf is sums' first storage, room for a whole node at the tree's
	// fanout, so summing allocates nothing of its own.
	buf [2 * sidxFanout]float64
}

// sum returns the lo and hi sums of b's boxes, box i's at index i, valid
// until the next call.
func (s *binSums) sum(b stree.Boxes) (sLo, sHi []float64) {
	first := b.Lo(s.bins[0])
	n := len(first)
	if s.of != &first[0] || len(s.sums) != 2*n {
		if s.sums == nil {
			s.sums = s.buf[:0]
		}
		s.sums = slices.Grow(s.sums[:0], 2*n)[:2*n]
		clear(s.sums)
		sLo, sHi = s.sums[:n], s.sums[n:]
		for _, bin := range s.bins {
			lo, hi := b.Lo(bin)[:n], b.Hi(bin)[:n]
			for i := range sLo {
				sLo[i] += lo[i]
				sHi[i] += hi[i]
			}
		}
		s.of = &first[0]
	}
	return s.sums[:n], s.sums[n:]
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
