package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/editops"
	"repro/internal/exec"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rbm"
)

// Paged evaluation. A query that carries a limit or an after-cursor asks for
// a slice of the answer, so it does not run the set-at-a-time strategies
// (which judge the whole corpus and sort): it walks the catalog's candidates
// in ascending id from after+1, gives each one the mode's own verdict, and
// stops the moment limit ids are confirmed. Candidates arrive in id windows
// that double in size; a window is finished before the next one is fetched
// and inside one nothing below the page's last id is left unjudged, so an id
// is only ever emitted when every candidate not yet examined has a larger id
// — which holds for any id assignment (an edited image may well have a
// smaller id than its base) because binary and edited ids are merged into
// one ascending stream rather than scanned kind by kind.
// The returned ids are exactly [id ∈ unlimited answer : id > after][:limit].
//
// ModeIndexed is not served here: the S-tree delivers ids in box order, so
// it keeps descend, filter, truncate (applyPage).

const (
	// pagedFirstWindow candidates are judged serially with a stop at the
	// exact candidate that fills the page; most pages end inside it.
	pagedFirstWindow = 256
	// pagedMaxWindow caps the doubling: a window is one catalog listing and
	// one verdict slot per candidate, whatever the corpus size.
	pagedMaxWindow = 4096
)

// The bwm package's counters, resolved by name (the registry is
// get-or-create) so the candidate-side BWM decision reports through them.
var (
	mClusterHits  = obs.Default().Counter("esidb_bwm_cluster_base_hits_total")
	mUnclassified = obs.Default().Counter("esidb_bwm_unclassified_walked_total")
)

// pagedTerm is one predicate of a paged query, reduced to the two tests the
// modes are built from.
type pagedTerm struct {
	// exact is the predicate on a known histogram: binary images, BWM base
	// verdicts, instantiated rasters.
	exact func(*histogram.Histogram) bool
	// walk is the predicate on an edited image's rule-derived bounds — the
	// RBM check.
	walk func(id uint64, st *rbm.Stats, tr *obs.Trace) (bool, error)
}

func (db *DB) rangeTerm(q query.Range) pagedTerm {
	return pagedTerm{
		exact: q.MatchesExact,
		walk: func(id uint64, st *rbm.Stats, tr *obs.Trace) (bool, error) {
			return db.rbmProc.CheckEdited(id, q, st, tr)
		},
	}
}

func (db *DB) multiTerm(q query.MultiRange) pagedTerm {
	return pagedTerm{
		exact: q.MatchesExact,
		walk: func(id uint64, st *rbm.Stats, tr *obs.Trace) (bool, error) {
			return db.multiCheckEdited(id, q, st, tr)
		},
	}
}

// clusterHit names one satisfied base verdict: bwm_cluster_hits counts each
// once per query however many of the base's members the page touched.
type clusterHit struct {
	term int
	base uint64
}

// pagedWorker is one worker's private accumulator.
type pagedWorker struct {
	st   rbm.Stats
	hits map[clusterHit]struct{}
}

// pagedScan is one paged query in flight.
type pagedScan struct {
	db    *DB
	terms []pagedTerm
	conn  query.Connective
	mode  Mode
	tr    *obs.Trace
	env   *editops.Env
}

// pagedDispatch is the paged counterpart of rangeDispatch, compoundDispatch
// and multiDispatch: barrier, scan, metrics. strategy labels the observed-
// statistics sample.
func (db *DB) pagedDispatch(ctx context.Context, terms []pagedTerm, conn query.Connective, strategy string, cfg QueryConfig) (*rbm.Result, error) {
	if _, ok := mQueryDur[cfg.Mode]; !ok {
		return nil, fmt.Errorf("core: unknown mode %d", uint8(cfg.Mode))
	}
	tr := cfg.Trace
	start := time.Now()
	if err := db.walQueryBarrier(ctx, tr); err != nil {
		return nil, err
	}
	done := tr.Phase("paged.scan")
	s := &pagedScan{db: db, terms: terms, conn: conn, mode: cfg.Mode, tr: tr, env: db.env()}
	res, err := s.run(ctx, cfg.After, cfg.Limit)
	done()
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	mQueryDur[cfg.Mode].ObserveDuration(elapsed)
	mQueryCount[cfg.Mode].Inc()
	examined := res.Stats.BinariesChecked + res.Stats.EditedWalked + res.Stats.EditedSkipped
	tr.Count(obs.TCandidatesExamined, int64(examined))
	tr.Count(obs.TImagesReturned, int64(len(res.IDs)))
	db.recordQueryStats(strategy, elapsed, res, examined)
	return res, nil
}

// run walks the id windows until the page is full or the catalog is
// exhausted. limit ≤ 0 means "everything after the cursor".
func (s *pagedScan) run(ctx context.Context, after uint64, limit int) (*rbm.Result, error) {
	workers := s.db.workers()
	ws := make([]pagedWorker, workers)
	ids := []uint64{}
	full := func() bool { return limit > 0 && len(ids) >= limit }
	for window := pagedFirstWindow; !full(); window = min(2*window, pagedMaxWindow) {
		cand := s.db.cat.ObjectsAfter(after, window)
		if len(cand) == 0 {
			break
		}
		after = cand[len(cand)-1].ID
		if window == pagedFirstWindow || workers == 1 {
			for _, obj := range cand {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				ok, err := s.judge(obj, &ws[0])
				if err != nil {
					return nil, err
				}
				if ok {
					if ids = append(ids, obj.ID); full() {
						break
					}
				}
			}
		} else {
			// Verdicts are slotted by position, so the window's matches come
			// out in id order whatever order the workers finish in.
			pw := newPagedWindow(len(cand), limit-len(ids))
			pst, err := exec.ForEach(ctx, workers, len(cand), func(w, i int) error {
				if pw.past(i) {
					return nil
				}
				ok, err := s.judge(cand[i], &ws[w])
				if ok {
					pw.hit(i)
				}
				return err
			})
			if pst.Workers > 1 {
				pst.Record(s.tr)
			}
			if err != nil {
				return nil, err
			}
			for i, ok := range pw.hits {
				if ok && !full() {
					ids = append(ids, cand[i].ID)
				}
			}
		}
		if len(cand) < window {
			break
		}
	}
	res := &rbm.Result{IDs: ids}
	hits := make(map[clusterHit]struct{})
	for i := range ws {
		res.Stats.Add(ws[i].st)
		for h := range ws[i].hits {
			hits[h] = struct{}{}
		}
	}
	if n := int64(len(hits)); n > 0 {
		mClusterHits.Add(n)
		s.tr.Count(obs.TClusterHits, n)
	}
	return res, nil
}

// pagedWindow holds one parallel window's verdicts by position. Once need
// matches are known, the need-th smallest of their positions is the furthest
// the page can reach, so the workers skip every position past it: a deep
// page costs its depth, not the size of the window it ends in. Positions up
// to that bound are never skipped (it only moves down), so the first need
// matches by position are always judged.
type pagedWindow struct {
	hits []bool
	need int // matches that fill the page; ≤ 0 or > len(hits): this window cannot

	mu    sync.Mutex // guards hits and found while the window can fill the page
	found int
	last  atomic.Int64 // positions past it are off the page
}

func newPagedWindow(n, need int) *pagedWindow {
	if need > n {
		need = 0
	}
	p := &pagedWindow{hits: make([]bool, n), need: need}
	p.last.Store(int64(n))
	return p
}

func (p *pagedWindow) past(i int) bool { return int64(i) > p.last.Load() }

// hit records a match at position i. Workers write distinct positions, so a
// window that cannot fill the page takes no lock.
func (p *pagedWindow) hit(i int) {
	if p.need <= 0 {
		p.hits[i] = true
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hits[i] = true
	if p.found++; p.found < p.need {
		return
	}
	for j, n := 0, 0; ; j++ {
		if p.hits[j] {
			if n++; n == p.need {
				p.last.Store(int64(j))
				return
			}
		}
	}
}

// judge gives one candidate the query's verdict: its terms in order,
// combined with short-circuit (And stops at the first miss, Or at the first
// match).
func (s *pagedScan) judge(obj *catalog.Object, w *pagedWorker) (bool, error) {
	and := s.conn == query.And
	for ti := range s.terms {
		ok, err := s.verdict(obj, ti, w)
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
func (s *pagedScan) verdict(obj *catalog.Object, ti int, w *pagedWorker) (bool, error) {
	t := &s.terms[ti]
	if obj.Kind == catalog.KindBinary {
		w.st.BinariesChecked++
		ok := t.exact(obj.Hist)
		if ok {
			s.tr.Count(obs.TBaseMatches, 1)
		}
		return ok, nil
	}
	switch s.mode {
	case ModeRBM:
		return t.walk(obj.ID, &w.st, s.tr)
	case ModeBWM:
		if !obj.Widening {
			mUnclassified.Inc()
			s.tr.Count(obs.TUnclassifiedWalked, 1)
			return t.walk(obj.ID, &w.st, s.tr)
		}
		// A base that vanished mid-query took this member with it; the rule
		// walk's own lookup then drops the candidate.
		if base, err := s.db.cat.Binary(obj.Seq.BaseID); err == nil && t.exact(base.Hist) {
			w.st.EditedSkipped++
			mFastPathAdmitted.Inc()
			s.tr.Count(obs.TFastPathAdmitted, 1)
			if w.hits == nil {
				w.hits = make(map[clusterHit]struct{})
			}
			w.hits[clusterHit{ti, obj.Seq.BaseID}] = struct{}{}
			return true, nil
		}
		return t.walk(obj.ID, &w.st, s.tr)
	case ModeInstantiate:
		return s.db.instantiateMatches(obj, s.env, t.exact, &w.st, s.tr)
	case ModeIndexed:
		return false, errors.New("core: indexed mode has no per-candidate verdict")
	default:
		return false, fmt.Errorf("core: unknown mode %d", uint8(s.mode))
	}
}
