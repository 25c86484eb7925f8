package core

import (
	"context"
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

// Under a limit the counters report the work the early-terminated scan did
// and the ids it returned, not the corpus.
func TestTracePagedCounterTruth(t *testing.T) {
	db := memDB(t)
	populate(t, db, 60, 5, 0.3, 21)
	q := query.Range{Bin: db.cfg.Quantizer.Bin(dataset.Red), PctMin: 0.05, PctMax: 1}
	ctx := context.Background()
	corpus := int64(len(db.Binaries()) + len(db.EditedIDs()))
	for _, mode := range AllModes() {
		tr := obs.NewTrace()
		res, err := db.RangeQueryCtx(ctx, q, mode, WithLimit(5), WithTrace(tr))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.IDs) != 5 || tr.Get(obs.TImagesReturned) != 5 {
			t.Fatalf("%v: %d ids, images_returned %d, want 5 and 5", mode, len(res.IDs), tr.Get(obs.TImagesReturned))
		}
		if mode == ModeIndexed {
			continue // descends the whole tree, then truncates
		}
		examined := tr.Get(obs.TCandidatesExamined)
		if examined < 5 || examined > int64(res.IDs[4]) || examined >= corpus {
			t.Fatalf("%v: candidates_examined %d for a page ending at id %d of %d objects", mode, examined, res.IDs[4], corpus)
		}
		if got := int64(res.Stats.BinariesChecked + res.Stats.EditedWalked + res.Stats.EditedSkipped); got != examined {
			t.Fatalf("%v: stats account for %d candidates, trace for %d", mode, got, examined)
		}
		if mode == ModeInstantiate {
			continue // walks no rules
		}
		if walked := tr.Get(obs.TEditedWalked); walked != int64(res.Stats.EditedWalked) {
			t.Fatalf("%v: edited_walked %d, stats %d", mode, walked, res.Stats.EditedWalked)
		}
		if rules := tr.Get(obs.TRulesEvaluated); rules != int64(res.Stats.OpsEvaluated) {
			t.Fatalf("%v: rules_evaluated %d, stats %d", mode, rules, res.Stats.OpsEvaluated)
		}
	}
}

// The candidate-side BWM decision feeds the same counters as the cluster
// walk: one fast-path admission per rule-free member, one cluster hit per
// satisfied base however many of its members the page held.
func TestTracePagedBWMFastPath(t *testing.T) {
	db := memDB(t)
	red, err := db.InsertImage("red", imaging.NewFilled(8, 8, dataset.Red))
	if err != nil {
		t.Fatal(err)
	}
	blue, err := db.InsertImage("blue", imaging.NewFilled(8, 8, dataset.Blue))
	if err != nil {
		t.Fatal(err)
	}
	widening := []editops.Op{editops.Modify{Old: dataset.Blue, New: dataset.Green}}
	for _, base := range []uint64{red, red, red, blue} {
		if _, err := db.InsertEdited("e", &editops.Sequence{BaseID: base, Ops: widening}); err != nil {
			t.Fatal(err)
		}
	}
	q := query.Range{Bin: db.cfg.Quantizer.Bin(dataset.Red), PctMin: 0.5, PctMax: 1}
	tr := obs.NewTrace()
	res, err := db.RangeQueryCtx(context.Background(), q, ModeBWM, WithLimit(3), WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	// Ids 1 (red) and 2 (blue) are the bases; 3 and 4 are red's first members.
	if !sameIDs(res.IDs, []uint64{red, 3, 4}) {
		t.Fatalf("ids %v", res.IDs)
	}
	if got := tr.Get(obs.TFastPathAdmitted); got != 2 {
		t.Fatalf("fastpath admitted %d, want 2", got)
	}
	if got := tr.Get(obs.TClusterHits); got != 1 {
		t.Fatalf("cluster hits %d, want 1", got)
	}
	if got := tr.Get(obs.TRulesEvaluated); got != 0 {
		t.Fatalf("fast path evaluated %d rules", got)
	}
	if got := tr.Get(obs.TCandidatesExamined); got != 4 {
		t.Fatalf("candidates examined %d, want 4", got)
	}
	if res.Stats.EditedSkipped != 2 || res.Stats.BinariesChecked != 2 {
		t.Fatalf("stats %+v", res.Stats)
	}
}
