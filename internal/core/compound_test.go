package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/imaging"
	"repro/internal/query"
)

func TestCompoundQueryAnd(t *testing.T) {
	db := memDB(t)
	// Three images: red+blue halves, all red, all blue.
	mixed := imaging.New(10, 10)
	imaging.HStripes(mixed, 2, []imaging.RGB{dataset.Red, dataset.Blue})
	mixedID, _ := db.InsertImage("mixed", mixed)
	db.InsertImage("red", imaging.NewFilled(10, 10, dataset.Red))
	db.InsertImage("blue", imaging.NewFilled(10, 10, dataset.Blue))

	res, err := db.CompoundQueryText("at least 30% red and at least 30% blue", ModeBWM)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 || res.IDs[0] != mixedID {
		t.Fatalf("and-query ids %v", res.IDs)
	}
}

func TestCompoundQueryOr(t *testing.T) {
	db := memDB(t)
	redID, _ := db.InsertImage("red", imaging.NewFilled(10, 10, dataset.Red))
	blueID, _ := db.InsertImage("blue", imaging.NewFilled(10, 10, dataset.Blue))
	db.InsertImage("green", imaging.NewFilled(10, 10, dataset.Green))

	res, err := db.CompoundQueryText("at least 90% red or at least 90% blue", ModeBWM)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 2 || res.IDs[0] != redID || res.IDs[1] != blueID {
		t.Fatalf("or-query ids %v", res.IDs)
	}
}

func TestCompoundQueryModesAgree(t *testing.T) {
	db := memDB(t)
	populate(t, db, 6, 4, 0.3, 17)
	texts := []string{
		"at least 10% red and at most 60% white",
		"at least 30% blue or at least 30% green",
		"between 5% and 60% red and at least 1% white",
	}
	for _, text := range texts {
		a, err := db.CompoundQueryText(text, ModeRBM)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		b, err := db.CompoundQueryText(text, ModeBWM)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(a.IDs, b.IDs) {
			t.Fatalf("%q: RBM %v != BWM %v", text, a.IDs, b.IDs)
		}
	}
}

func TestCompoundQuerySingleTermEqualsRange(t *testing.T) {
	db := memDB(t)
	populate(t, db, 5, 3, 0.2, 19)
	r, err := query.ParseRange("at least 20% red", db.Quantizer())
	if err != nil {
		t.Fatal(err)
	}
	single, err := db.RangeQuery(r, ModeBWM)
	if err != nil {
		t.Fatal(err)
	}
	compound, err := db.CompoundQuery(query.Compound{Terms: []query.Range{r}}, ModeBWM)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(single.IDs, compound.IDs) {
		t.Fatalf("single-term compound differs: %v vs %v", single.IDs, compound.IDs)
	}
}

func TestCompoundQueryValidation(t *testing.T) {
	db := memDB(t)
	if _, err := db.CompoundQuery(query.Compound{}, ModeBWM); err == nil {
		t.Fatal("empty compound accepted")
	}
	if _, err := db.CompoundQueryText("nonsense query", ModeBWM); err == nil {
		t.Fatal("unparseable compound accepted")
	}
}

func TestIndexedModeEqualsRBM(t *testing.T) {
	db := memDB(t)
	populate(t, db, 6, 4, 0.3, 31)
	queries, _ := dataset.RangeWorkload(dataset.WorkloadConfig{Queries: 40, Seed: 3}, db.Quantizer())
	requireIndexedEqualsRBM(t, "built", db, db, queries)
	if ready, items, _ := db.SearchIndexStats(); !ready || items != len(db.Binaries())+len(db.EditedIDs()) {
		t.Fatalf("index stats: ready=%v items=%d", ready, items)
	}
}

func TestIndexedLazyAndMaintainedOnDelete(t *testing.T) {
	db := memDB(t)
	populate(t, db, 3, 2, 0, 32)
	// Lazy: the first indexed query builds the tree.
	if ready, n, _ := db.SearchIndexStats(); ready || n != 0 {
		t.Fatalf("index pre-built: ready=%v items=%d", ready, n)
	}
	q, _ := dataset.RangeWorkload(dataset.WorkloadConfig{Queries: 1, Seed: 1}, db.Quantizer())
	if _, err := db.RangeQuery(q[0], ModeIndexed); err != nil {
		t.Fatal(err)
	}
	_, n1, _ := db.SearchIndexStats()
	if n1 != len(db.Binaries())+len(db.EditedIDs()) {
		t.Fatalf("index after query: %d", n1)
	}
	victim := db.EditedIDs()[0]
	if err := db.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if _, n2, _ := db.SearchIndexStats(); n2 != n1-1 {
		t.Fatalf("index after delete: %d, want %d", n2, n1-1)
	}
	// Queries still correct.
	a, _ := db.RangeQuery(q[0], ModeRBM)
	b, _ := db.RangeQuery(q[0], ModeIndexed)
	if !sameIDs(a.IDs, b.IDs) {
		t.Fatal("indexed mode wrong after delete")
	}
	// A closed database refuses to build rather than index a dead catalog.
	closed, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	if _, err := closed.RangeQuery(q[0], ModeIndexed); err == nil {
		t.Fatal("indexed query built an index on a closed database")
	}
}

func TestExplainMatchesExecution(t *testing.T) {
	db := memDB(t)
	populate(t, db, 6, 4, 0.3, 61)
	queries, _ := dataset.RangeWorkload(dataset.WorkloadConfig{Queries: 25, Seed: 9}, db.Quantizer())
	for _, q := range queries {
		plan, err := db.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		rbmRes, err := db.RangeQuery(q, ModeRBM)
		if err != nil {
			t.Fatal(err)
		}
		bwmRes, err := db.RangeQuery(q, ModeBWM)
		if err != nil {
			t.Fatal(err)
		}
		// Plan numbers are exact predictions of what the modes did.
		if plan.OpsRBM != rbmRes.Stats.OpsEvaluated {
			t.Fatalf("plan OpsRBM %d != executed %d", plan.OpsRBM, rbmRes.Stats.OpsEvaluated)
		}
		if plan.OpsBWM != bwmRes.Stats.OpsEvaluated {
			t.Fatalf("plan OpsBWM %d != executed %d", plan.OpsBWM, bwmRes.Stats.OpsEvaluated)
		}
		if plan.SkippedByBWM != bwmRes.Stats.EditedSkipped {
			t.Fatalf("plan skips %d != executed %d", plan.SkippedByBWM, bwmRes.Stats.EditedSkipped)
		}
		if plan.SkippedByBWM+plan.WalkedByBWM != plan.Edited {
			t.Fatalf("plan partition broken: %+v", plan)
		}
	}
	// Text form parses and prints.
	plan, err := db.ExplainText("at least 20% red")
	if err != nil {
		t.Fatal(err)
	}
	if plan.String() == "" {
		t.Fatal("empty plan text")
	}
	if _, err := db.ExplainText("gibberish"); err == nil {
		t.Fatal("bad explain text accepted")
	}
	if _, err := db.Explain(query.Range{Bin: -1}); err == nil {
		t.Fatal("invalid query explained")
	}
}
