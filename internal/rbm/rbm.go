// Package rbm holds the paper's Rule-Based Method verdict (§3): an edited
// image satisfies a color range query when the BOUNDS rule walk over its
// full operation sequence yields a bound range that overlaps the query
// range, while a binary image takes the exact histogram test. RBM produces
// no false negatives; edited images whose bound range overlaps the query
// range are returned even though their exact percentage is unknown.
//
// internal/core's scan evaluator applies the verdict to every candidate;
// its Bound-Widening Method verdict is the rule-free shortcut for images
// whose catalog Widening flag is set and whose base satisfies the query.
package rbm

import (
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/editops"
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

// Add folds another execution's counters into s; an indexed compound query
// sums its terms' descents with it.
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

// CheckEdited runs the BOUNDS walk for one edited image over its base and
// reports whether its bound range overlaps the query range. It is the RBM
// verdict, and BWM's algorithm (paper Fig. 2, steps 4.3 and 5) invokes
// exactly this procedure for cluster members whose base failed the query
// and for the Unclassified Component. The caller has fetched both catalog
// entries; tr may be nil.
func CheckEdited(e *rules.Engine, obj, base *catalog.Object, q query.Range, st *Stats, tr *obs.Trace) (bool, error) {
	if obj.Kind != catalog.KindEdited {
		return false, fmt.Errorf("rbm: object %d is not an edited image", obj.ID)
	}
	st.EditedWalked++
	st.OpsEvaluated += len(obj.Seq.Ops)
	CountRuleWalk(obj.Seq.Ops, tr)
	b, err := e.BoundsForBin(base.Hist, base.W, base.H, obj.Seq.Ops, q.Bin)
	if errors.Is(err, catalog.ErrNotFound) {
		return false, nil // a Merge target is only deletable once this version of the image is gone
	}
	if err != nil {
		return false, fmt.Errorf("rbm: edited %d: %w", obj.ID, err)
	}
	return b.Overlaps(q.PctMin, q.PctMax), nil
}

// CountRuleWalk records one edited image's rule walk into the process
// registry (per-op-type rule counters) and the trace. Exported so every
// call site that evaluates BOUNDS rules outside CheckEdited (multi-bin
// queries, S-tree item construction) reports through the same counters.
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
