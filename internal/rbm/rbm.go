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
// (the cost RBM pays and BWM's fast path avoids), the edited-walk count and
// the BWM decisions. Stats.Record is their only writer.
var (
	mEditedWalked = obs.Default().Counter("esidb_rbm_edited_walked_total")
	mRulesByKind  = func() [editops.KindMerge + 1]*obs.Counter {
		var out [editops.KindMerge + 1]*obs.Counter
		for k := editops.KindDefine; k <= editops.KindMerge; k++ {
			out[k] = obs.Default().Counter(fmt.Sprintf("esidb_rbm_rules_evaluated_total{op=%q}", k.String()))
		}
		return out
	}()
	mClusterHits      = obs.Default().Counter("esidb_bwm_cluster_base_hits_total")
	mFastPathAdmitted = obs.Default().Counter("esidb_bwm_fastpath_admitted_total")
	mUnclassified     = obs.Default().Counter("esidb_bwm_unclassified_walked_total")
)

// Stats instruments one query execution, and it is the only record written
// per candidate: the evaluator counts into it and Record folds it into the
// trace and the registry once per query. The benchmarks report it alongside
// wall time to explain *why* BWM is faster (fewer rule evaluations).
type Stats struct {
	// BinariesChecked is the number of exact histogram tests.
	BinariesChecked int
	// EditedWalked is the number of edited images whose sequences were
	// evaluated with the rule engine, plus, in instantiate mode, the
	// number instantiated (Instantiated).
	EditedWalked int
	// OpsEvaluated is the total number of operation rules applied.
	OpsEvaluated int
	// EditedSkipped counts edited images admitted without rule evaluation
	// (always zero for RBM; BWM reuses this type).
	EditedSkipped int
	// RulesByKind splits OpsEvaluated by operation type, indexed by
	// editops.Kind.
	RulesByKind [editops.KindMerge + 1]int
	// Instantiated counts the edited images decided by instantiation
	// rather than a rule walk.
	Instantiated int
	// BaseMatches counts the binary images that satisfied a term.
	BaseMatches int
	// FastPathAdmitted counts BWM's rule-free admissions (Fig. 2 step 4.2).
	FastPathAdmitted int
	// Unclassified counts BWM verdicts on Unclassified Component images,
	// each of which takes the rule walk (Fig. 2 step 5).
	Unclassified int
	// ClusterHits counts the distinct (term, base) pairs behind the
	// fast-path admissions.
	ClusterHits int
}

// Walked counts one rule walk over ops.
func (s *Stats) Walked(ops []editops.Op) {
	s.EditedWalked++
	s.OpsEvaluated += len(ops)
	for _, op := range ops {
		if k := op.Kind(); k >= editops.KindDefine && k <= editops.KindMerge {
			s.RulesByKind[k]++
		}
	}
}

// Add folds another execution's counters into s; a cluster answer sums its
// shards' with it.
func (s *Stats) Add(o Stats) {
	s.BinariesChecked += o.BinariesChecked
	s.EditedWalked += o.EditedWalked
	s.OpsEvaluated += o.OpsEvaluated
	s.EditedSkipped += o.EditedSkipped
	for k, n := range o.RulesByKind {
		s.RulesByKind[k] += n
	}
	s.Instantiated += o.Instantiated
	s.BaseMatches += o.BaseMatches
	s.FastPathAdmitted += o.FastPathAdmitted
	s.Unclassified += o.Unclassified
	s.ClusterHits += o.ClusterHits
}

// Record folds s into the trace's decision counters and the process
// registry. tr may be nil: index maintenance records its rule walks into
// the registry alone.
func (s *Stats) Record(tr *obs.Trace) {
	walks := int64(s.EditedWalked - s.Instantiated)
	mEditedWalked.Add(walks)
	for k := editops.KindDefine; k <= editops.KindMerge; k++ {
		if n := s.RulesByKind[k]; n > 0 {
			mRulesByKind[k].Add(int64(n))
		}
	}
	mClusterHits.Add(int64(s.ClusterHits))
	mFastPathAdmitted.Add(int64(s.FastPathAdmitted))
	mUnclassified.Add(int64(s.Unclassified))
	tr.Count(obs.TBaseMatches, int64(s.BaseMatches))
	tr.Count(obs.TClusterHits, int64(s.ClusterHits))
	tr.Count(obs.TFastPathAdmitted, int64(s.FastPathAdmitted))
	tr.Count(obs.TUnclassifiedWalked, int64(s.Unclassified))
	tr.Count(obs.TEditedWalked, walks)
	tr.Count(obs.TRulesEvaluated, int64(s.OpsEvaluated))
	tr.Count(obs.TEditedInstantiated, int64(s.Instantiated))
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
// entries.
func CheckEdited(e *rules.Engine, obj, base *catalog.Object, q query.Range, st *Stats) (bool, error) {
	if obj.Kind != catalog.KindEdited {
		return false, fmt.Errorf("rbm: object %d is not an edited image", obj.ID)
	}
	st.Walked(obj.Seq.Ops)
	b, err := e.BoundsForBin(base.Hist, base.W, base.H, obj.Seq.Ops, q.Bin)
	if errors.Is(err, catalog.ErrNotFound) {
		return false, nil // a Merge target is only deletable once this version of the image is gone
	}
	if err != nil {
		return false, fmt.Errorf("rbm: edited %d: %w", obj.ID, err)
	}
	return b.Overlaps(q.PctMin, q.PctMax), nil
}
