package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/catalog"
	"repro/internal/editops"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rbm"
	"repro/internal/stree"
)

// The evaluator. Every range, compound and multi-bin query runs here, in
// every mode, with or without a limit or an after-cursor. A query is a list
// of pagedTerms combined by one connective, and each term carries both the
// mode verdicts on a candidate and its test of an S-tree box.
//
// The bwm, rbm and instantiate scans walk the catalog's candidates in
// ascending id from after+1, give each one the mode's own verdict, and stop
// the moment limit ids are confirmed (without a limit, at the end of the
// catalog). Candidates arrive in id windows that double in size and are
// judged one at a time on the query's goroutine, so an id is only ever
// emitted when every candidate not yet examined has a larger id — which
// holds for any id assignment (an edited image may well have a smaller id
// than its base) because binary and edited ids are merged into one
// ascending stream rather than scanned kind by kind.
// The returned ids are exactly [id ∈ answer : id > after][:limit].
//
// ModeIndexed descends the S-tree once for all terms (descend, indexed.go)
// and delivers ids in box order, so it keeps descend, filter, truncate
// (applyPage).
//
// Verdicts count their work into the query's rbm.Stats and nothing else;
// dispatch folds it into the trace and the registry once per query.

const (
	// pagedFirstWindow is the first catalog listing's size; most pages end
	// inside it.
	pagedFirstWindow = 256
	// pagedMaxWindow caps the doubling: a window is one catalog listing,
	// whatever the corpus size.
	pagedMaxWindow = 4096
	// pagedCheckEvery is how many candidates a scan judges between two
	// looks at its context: ctx.Err takes a lock, a verdict mostly does not,
	// so a cancelled scan stops within this many candidates.
	pagedCheckEvery = 64
)

// pagedTerm is one predicate of a query, reduced to the tests the modes are
// built from: two on a candidate for the scans, two on S-tree boxes for
// ModeIndexed.
type pagedTerm struct {
	// exact is the predicate on a known histogram: binary images, BWM base
	// verdicts, instantiated rasters.
	exact func(*histogram.Histogram) bool
	// walk is the predicate on an edited image's rule-derived bounds over
	// its base — the RBM check.
	walk func(obj, base *catalog.Object, st *rbm.Stats) (bool, error)
	// box classifies S-tree boxes against the term — a node's children's
	// union boxes, or a leaf's items — writing box i's verdict to out[i].
	// It is conservative: None and Full are proofs, Partial is not.
	box func(b stree.Boxes, out []stree.Overlap)
	// leaf decides, in one call, the items of an S-tree leaf that in names
	// (bit i for item i) and returns the ones the term admits. Every item
	// in names has its verdict ov[i] from box on this leaf, none of them
	// None; a nil ov means an ancestor was Full and every item is. An
	// item is decided from its verdict and the leaf's columns (a
	// multi-bin term reads an edited item's payload only inside its
	// epsilon band), and only an item with the universal box pays a rule
	// walk.
	leaf func(l *stree.Leaf, ov []stree.Overlap, in uint64, st *rbm.Stats) (uint64, error)
}

// rangeTerm is a single-bin range predicate. Its box test on the queried
// bin's slab is exact for binary point boxes and edited bounds boxes alike
// (indexed.go), so every item it lets through is in, straight from the
// kind column, and only an item with the universal box pays a rule walk.
func (db *DB) rangeTerm(q query.Range) pagedTerm {
	return pagedTerm{
		exact: q.MatchesExact,
		walk: func(obj, base *catalog.Object, st *rbm.Stats) (bool, error) {
			return rbm.CheckEdited(db.engine, obj, base, q, st)
		},
		box: func(b stree.Boxes, out []stree.Overlap) {
			lo, hi := b.Lo(q.Bin), b.Hi(q.Bin)
			for i := range out {
				switch {
				case lo[i] > q.PctMax || hi[i] < q.PctMin:
					out[i] = stree.OverlapNone
				case lo[i] >= q.PctMin && hi[i] <= q.PctMax:
					out[i] = stree.OverlapFull
				default:
					out[i] = stree.OverlapPartial
				}
			}
		},
		leaf: func(l *stree.Leaf, ov []stree.Overlap, in uint64, st *rbm.Stats) (uint64, error) {
			out := in
			for m := in; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				kind := l.Kind(i)
				if kind != sidxUniversal {
					sidxAdmit(kind, ov == nil || ov[i] == stree.OverlapFull, st)
					continue
				}
				b, err := db.editedBoundsByID(l.ID(i), st)
				if err != nil {
					return 0, err
				}
				if b == nil || !b[q.Bin].Overlaps(q.PctMin, q.PctMax) {
					out &^= 1 << i
				}
			}
			return out, nil
		},
	}
}

// clusterHit names one satisfied base verdict: Stats.ClusterHits counts each
// once per query however many of the base's members the scan touched.
type clusterHit struct {
	term int
	base uint64
}

// pagedScan is one scanned query in flight.
type pagedScan struct {
	db    *DB
	terms []pagedTerm
	conn  query.Connective
	mode  Mode
	env   *editops.Env
	hits  map[clusterHit]struct{}
}

// dispatch is the one path behind every range, compound and multi-bin
// entry point: mode resolution, WAL barrier, evaluation, metrics. An unset
// mode is resolved first (ResolveMode), so the metrics, the trace and the
// Stats all describe the strategy that ran. The scan modes run the
// evaluator over terms combined by conn; ModeIndexed descends the S-tree
// once for the same terms and cuts the page out of the whole answer.
// Either way the per-mode latency and count, the query's rbm.Stats and the
// trace's candidate and answer counters are recorded once per call, and an
// empty answer is a non-nil empty slice.
func (db *DB) dispatch(ctx context.Context, cfg QueryConfig, terms []pagedTerm, conn query.Connective) (*rbm.Result, error) {
	cfg.Mode = ResolveMode(cfg.Mode, cfg.Limit)
	if _, ok := mQueryDur[cfg.Mode]; !ok {
		return nil, fmt.Errorf("core: unknown mode %d", uint8(cfg.Mode))
	}
	tr := cfg.Trace
	start := time.Now()
	if err := db.walQueryBarrier(ctx, tr); err != nil {
		return nil, err
	}
	var res *rbm.Result
	var err error
	if cfg.Mode == ModeIndexed {
		res, err = db.descend(ctx, terms, conn, tr)
	} else {
		done := tr.Phase("scan")
		s := &pagedScan{db: db, terms: terms, conn: conn, mode: cfg.Mode, env: db.env()}
		res, err = s.run(ctx, cfg.After, cfg.Limit)
		done()
	}
	if err != nil {
		return nil, err
	}
	mQueryDur[cfg.Mode].ObserveDuration(time.Since(start))
	mQueryCount[cfg.Mode].Inc()
	res.Stats.Record(tr)
	examined := res.Stats.BinariesChecked + res.Stats.EditedWalked + res.Stats.EditedSkipped
	tr.Count(obs.TCandidatesExamined, int64(examined))
	res = applyPage(res, cfg)
	if res.IDs == nil {
		res.IDs = []uint64{} // an empty answer reads "ids": [] on the wire, in every mode
	}
	tr.Count(obs.TImagesReturned, int64(len(res.IDs)))
	return res, nil
}

// run walks the id windows until the page is full or the catalog is
// exhausted. limit ≤ 0 means "everything after the cursor". Every candidate
// is judged here, in id order, so a page stops at the exact candidate that
// fills it and costs exactly its depth. The windows share one buffer, and
// the context is checked at each window's start and then every
// pagedCheckEvery candidates.
func (s *pagedScan) run(ctx context.Context, after uint64, limit int) (*rbm.Result, error) {
	res := &rbm.Result{}
	full := func() bool { return limit > 0 && len(res.IDs) >= limit }
	var cand []*catalog.Object
	for window := pagedFirstWindow; !full(); window = min(2*window, pagedMaxWindow) {
		cand = s.db.cat.ObjectsAfter(cand, after, window)
		if len(cand) == 0 {
			break
		}
		after = cand[len(cand)-1].ID
		for i, obj := range cand {
			if i%pagedCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			ok, err := s.judge(obj, &res.Stats)
			if err != nil {
				return nil, err
			}
			if ok {
				if res.IDs = append(res.IDs, obj.ID); full() {
					break
				}
			}
		}
		if len(cand) < window {
			break
		}
	}
	res.Stats.ClusterHits = len(s.hits)
	return res, nil
}

// judge gives one candidate the query's verdict: its terms in order,
// combined with short-circuit (And stops at the first miss, Or at the first
// match). An edited candidate's base is looked up once, here, for every
// term's rule walk and BWM base test.
func (s *pagedScan) judge(obj *catalog.Object, st *rbm.Stats) (bool, error) {
	var base *catalog.Object
	if obj.Kind == catalog.KindEdited && s.mode != ModeInstantiate {
		b, err := s.db.cat.Binary(obj.Seq.BaseID)
		if errors.Is(err, catalog.ErrNotFound) {
			return false, nil // a base is only deletable once this image is gone
		}
		if err != nil {
			return false, err
		}
		base = b
	}
	and := s.conn == query.And
	for ti := range s.terms {
		ok, err := s.verdict(obj, base, ti, st)
		if err != nil {
			return false, err
		}
		if ok != and {
			return ok, nil
		}
	}
	return and, nil
}

// verdict is the mode's own decision on one candidate for one term. Binary
// images get the exact histogram test in every mode. Edited images get the
// RBM rule walk, or instantiation and the exact test, or under BWM the
// paper's Fig. 2 taken from the candidate's side: a Main-Component member
// (obj.Widening — the classification that routed it into its base's cluster)
// whose base satisfies the term is admitted rule-free (step 4.2); a member
// whose base fails it, and every Unclassified image, takes the rule walk
// (steps 4.3 and 5).
func (s *pagedScan) verdict(obj, base *catalog.Object, ti int, st *rbm.Stats) (bool, error) {
	t := &s.terms[ti]
	if obj.Kind == catalog.KindBinary {
		st.BinariesChecked++
		ok := t.exact(obj.Hist)
		if ok {
			st.BaseMatches++
		}
		return ok, nil
	}
	switch s.mode {
	case ModeRBM:
		return t.walk(obj, base, st)
	case ModeBWM:
		if !obj.Widening {
			st.Unclassified++
			return t.walk(obj, base, st)
		}
		if t.exact(base.Hist) {
			st.EditedSkipped++
			st.FastPathAdmitted++
			if s.hits == nil {
				s.hits = make(map[clusterHit]struct{})
			}
			s.hits[clusterHit{ti, obj.Seq.BaseID}] = struct{}{}
			return true, nil
		}
		return t.walk(obj, base, st)
	case ModeInstantiate:
		return s.db.instantiateMatches(obj, s.env, t.exact, st)
	case ModeIndexed:
		return false, errors.New("core: indexed mode has no per-candidate verdict")
	default:
		return false, fmt.Errorf("core: unknown mode %d", uint8(s.mode))
	}
}
