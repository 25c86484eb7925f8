// Package rbm implements the paper's Rule-Based Method query processor
// (§3): color range queries over the augmented database are answered by
// checking every binary image's exact histogram and running the BOUNDS rule
// walk over every edited image's full operation sequence. RBM produces no
// false negatives; edited images whose bound range overlaps the query range
// are returned even though their exact percentage is unknown.
//
// RBM is the baseline the Bound-Widening Method (internal/bwm) accelerates.
package rbm

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/editops"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rules"
)

// Process-wide counters: rule evaluations broken down by operation type
// (the cost RBM pays and BWM's fast path avoids), plus the edited-walk
// count. Indexed by editops.Kind for a branch-free hot path.
var (
	mEditedWalked = obs.Default().Counter("esidb_rbm_edited_walked_total")
	mRulesByKind  = func() [editops.KindMerge + 1]*obs.Counter {
		var out [editops.KindMerge + 1]*obs.Counter
		for k := editops.KindDefine; k <= editops.KindMerge; k++ {
			out[k] = obs.Default().Counter(fmt.Sprintf("esidb_rbm_rules_evaluated_total{op=%q}", k.String()))
		}
		return out
	}()
)

// Stats instruments one query execution; the benchmarks report these
// alongside wall time to explain *why* BWM is faster (fewer rule
// evaluations).
type Stats struct {
	// BinariesChecked is the number of exact histogram tests.
	BinariesChecked int
	// EditedWalked is the number of edited images whose sequences were
	// evaluated with the rule engine.
	EditedWalked int
	// OpsEvaluated is the total number of operation rules applied.
	OpsEvaluated int
	// EditedSkipped counts edited images admitted without rule evaluation
	// (always zero for RBM; BWM reuses this type).
	EditedSkipped int
}

// Add folds another execution's counters into s. The parallel walk keeps
// one Stats per worker and merges them with Add, so totals are independent
// of scheduling.
func (s *Stats) Add(o Stats) {
	s.BinariesChecked += o.BinariesChecked
	s.EditedWalked += o.EditedWalked
	s.OpsEvaluated += o.OpsEvaluated
	s.EditedSkipped += o.EditedSkipped
}

// Result is a query answer: matching object ids in ascending order plus
// execution statistics.
type Result struct {
	IDs   []uint64
	Stats Stats
}

// Processor executes RBM queries over a catalog with a rule engine.
type Processor struct {
	Cat    *catalog.Catalog
	Engine *rules.Engine
	// Parallel, when non-nil, supplies the candidate-evaluation
	// parallelism knob (0 = auto, 1 = serial); nil keeps the walk serial.
	// It is a callback so the owning database can retune a live processor.
	Parallel func() int
}

// workers resolves the processor's parallelism for one query.
func (p *Processor) workers() int {
	if p.Parallel == nil {
		return 1
	}
	return exec.Resolve(p.Parallel())
}

// New returns an RBM processor.
func New(cat *catalog.Catalog, engine *rules.Engine) *Processor {
	return &Processor{Cat: cat, Engine: engine}
}

// Range answers a color range query with the §3 algorithm: exact test for
// every binary image, full BOUNDS walk for every edited image.
func (p *Processor) Range(q query.Range) (*Result, error) {
	return p.RangeTraced(q, nil)
}

// RangeTraced is Range with per-phase timings and decision counts recorded
// into tr (nil disables tracing at no cost).
func (p *Processor) RangeTraced(q query.Range, tr *obs.Trace) (*Result, error) {
	return p.RangeTracedCtx(context.Background(), q, tr)
}

// RangeTracedCtx is RangeTraced with the caller's ctx propagated into the
// candidate-evaluation worker pool, so cancelling the query stops the
// edited walk.
func (p *Processor) RangeTracedCtx(ctx context.Context, q query.Range, tr *obs.Trace) (*Result, error) {
	if err := q.Validate(p.Engine.Quant.Bins()); err != nil {
		return nil, err
	}
	res := &Result{}
	done := tr.Phase("rbm.scan-binaries")
	for _, id := range p.Cat.Binaries() {
		obj, err := p.Cat.Binary(id)
		if errors.Is(err, catalog.ErrNotFound) {
			continue // deleted since the id list was taken
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
	// The edited walk shards across the worker pool: verdicts are slotted
	// by candidate index and statistics kept per worker, so the merged
	// result is identical to the serial loop at any parallelism.
	done = tr.Phase("rbm.walk-edited")
	workers := p.workers()
	stats := make([]Stats, workers)
	matched, pst, err := exec.FilterIDs(ctx, workers, p.Cat.EditedIDs(), func(w int, id uint64) (bool, error) {
		return p.CheckEdited(id, q, &stats[w], tr)
	})
	if pst.Workers > 1 {
		pst.Record(tr)
	}
	if err != nil {
		return nil, err
	}
	res.IDs = append(res.IDs, matched...)
	for i := range stats {
		res.Stats.Add(stats[i])
	}
	done()
	sortIDs(res.IDs)
	return res, nil
}

// CheckEdited runs the BOUNDS walk for one edited image and reports whether
// its bound range overlaps the query range. It is exported because BWM's
// algorithm (paper Fig. 2, steps 4.3 and 5) invokes exactly this procedure
// for cluster members whose base failed the query and for the Unclassified
// Component. tr may be nil.
func (p *Processor) CheckEdited(id uint64, q query.Range, st *Stats, tr *obs.Trace) (bool, error) {
	obj, err := p.Cat.Edited(id)
	if errors.Is(err, catalog.ErrNotFound) {
		return false, nil // deleted since the id was listed
	}
	if err != nil {
		return false, err
	}
	base, err := p.Cat.Binary(obj.Seq.BaseID)
	if errors.Is(err, catalog.ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("rbm: edited %d: %w", id, err)
	}
	st.EditedWalked++
	st.OpsEvaluated += len(obj.Seq.Ops)
	CountRuleWalk(obj.Seq.Ops, tr)
	b, err := p.Engine.BoundsForBin(base.Hist, base.W, base.H, obj.Seq.Ops, q.Bin)
	if err != nil {
		return false, fmt.Errorf("rbm: edited %d: %w", id, err)
	}
	return b.Overlaps(q.PctMin, q.PctMax), nil
}

// CountRuleWalk records one edited image's rule walk into the process
// registry (per-op-type rule counters) and the trace. Exported so every
// call site that evaluates BOUNDS rules outside CheckEdited (multi-bin
// queries, k-NN bounds, S-tree item construction) reports through the same
// counters.
func CountRuleWalk(ops []editops.Op, tr *obs.Trace) {
	mEditedWalked.Inc()
	var byKind [editops.KindMerge + 1]int64
	for _, op := range ops {
		if k := op.Kind(); k >= editops.KindDefine && k <= editops.KindMerge {
			byKind[k]++
		}
	}
	for k, n := range byKind {
		if n > 0 {
			mRulesByKind[k].Add(n)
		}
	}
	tr.Count(obs.TEditedWalked, 1)
	tr.Count(obs.TRulesEvaluated, int64(len(ops)))
}

func sortIDs(ids []uint64) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
