package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/editops"
	"repro/internal/imaging"
	"repro/internal/obs"
	"repro/internal/query"
)

// A traced query must record phase timings and decision counts that agree
// with the result's own statistics, and tracing must not change results.
func TestRangeQueryTraced(t *testing.T) {
	db := memDB(t)
	populate(t, db, 4, 3, 0, 7)
	q := query.Range{Bin: db.cfg.Quantizer.Bin(dataset.Red), PctMin: 0.2, PctMax: 1}

	for _, mode := range []Mode{ModeBWM, ModeRBM, ModeIndexed, ModeInstantiate} {
		plain, err := db.RangeQuery(q, mode)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace()
		traced, err := db.RangeQueryTraced(q, mode, tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(traced.IDs) != len(plain.IDs) {
			t.Fatalf("%v: tracing changed results: %d vs %d", mode, len(traced.IDs), len(plain.IDs))
		}
		if len(tr.Phases()) == 0 {
			t.Fatalf("%v: no phases recorded", mode)
		}
		if got := tr.Get(obs.TImagesReturned); got != int64(len(traced.IDs)) {
			t.Fatalf("%v: images_returned %d, want %d", mode, got, len(traced.IDs))
		}
		if tr.Get(obs.TCandidatesExamined) == 0 {
			t.Fatalf("%v: no candidates examined", mode)
		}
	}
}

// BWM's trace must show the fast path admitting widening-only images
// rule-free when their base matches.
func TestTraceBWMFastPath(t *testing.T) {
	db := memDB(t)
	baseID, err := db.InsertImage("red", imaging.NewFilled(8, 8, dataset.Red))
	if err != nil {
		t.Fatal(err)
	}
	// A widening-only edit: Modify leaves the red pixels alone, so the red
	// bin's interval only widens and BWM may admit the image rule-free.
	seq := &editops.Sequence{BaseID: baseID, Ops: []editops.Op{
		editops.Modify{Old: dataset.Blue, New: dataset.Green},
	}}
	eid, err := db.InsertEdited("e", seq)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := db.Get(eid)
	if err != nil {
		t.Fatal(err)
	}
	if !obj.Widening {
		t.Fatal("test sequence classified non-widening")
	}
	q := query.Range{Bin: db.cfg.Quantizer.Bin(dataset.Red), PctMin: 0.5, PctMax: 1}
	tr := obs.NewTrace()
	res, err := db.RangeQueryTraced(q, ModeBWM, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 2 {
		t.Fatalf("ids %v", res.IDs)
	}
	if tr.Get(obs.TClusterHits) != 1 {
		t.Fatalf("cluster hits %d", tr.Get(obs.TClusterHits))
	}
	if tr.Get(obs.TFastPathAdmitted) != 1 {
		t.Fatalf("fastpath admitted %d", tr.Get(obs.TFastPathAdmitted))
	}
	if tr.Get(obs.TRulesEvaluated) != 0 {
		t.Fatalf("fast path evaluated %d rules", tr.Get(obs.TRulesEvaluated))
	}
}

// Indexed tracing must expose the S-tree's cold build then warm reuse: the
// first indexed query records the build phase, the second descends the
// stored bounds and evaluates no rules.
func TestTraceIndexedBuildOnce(t *testing.T) {
	db := memDB(t)
	populate(t, db, 3, 2, 0, 9)
	q := query.Range{Bin: db.cfg.Quantizer.Bin(dataset.Blue), PctMin: 0.1, PctMax: 1}
	built := func(tr *obs.Trace) bool {
		for _, p := range tr.Phases() {
			if p.Name == "indexed.build" {
				return true
			}
		}
		return false
	}

	cold := obs.NewTrace()
	if _, err := db.RangeQueryTraced(q, ModeIndexed, cold); err != nil {
		t.Fatal(err)
	}
	if !built(cold) {
		t.Fatalf("cold run recorded no build phase: %v", cold.Phases())
	}
	warm := obs.NewTrace()
	if _, err := db.RangeQueryTraced(q, ModeIndexed, warm); err != nil {
		t.Fatal(err)
	}
	if built(warm) {
		t.Fatalf("warm run rebuilt the index: %v", warm.Phases())
	}
	if warm.Get(obs.TIndexNodesVisited) == 0 || warm.Get(obs.TEditedWalked) != 0 || warm.Get(obs.TRulesEvaluated) != 0 {
		t.Fatalf("warm run: nodes %d, walked %d, rules %d", warm.Get(obs.TIndexNodesVisited),
			warm.Get(obs.TEditedWalked), warm.Get(obs.TRulesEvaluated))
	}
}
