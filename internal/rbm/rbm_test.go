package rbm_test

// The verdict tests hand rbm.CheckEdited the catalog entries the scan
// would; the Range tests run RBM the way a query does, every candidate of a
// core.DB through the scan evaluator in ModeRBM.

import (
	"context"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/colorspace"
	"repro/internal/core"
	"repro/internal/editops"
	"repro/internal/histogram"
	"repro/internal/imaging"
	"repro/internal/query"
	"repro/internal/rbm"
	"repro/internal/rules"
)

var (
	q4    = colorspace.NewUniformRGB(4)
	red   = imaging.RGB{R: 200, G: 0, B: 0}
	green = imaging.RGB{R: 0, G: 200, B: 0}
	blue  = imaging.RGB{R: 0, G: 0, B: 200}
)

// binaryFixture is the fixture's three binary images: all red, half red, no
// red.
func binaryFixture() ([]string, []*imaging.Image) {
	halfRed := imaging.NewFilled(10, 10, green)
	imaging.FillRect(halfRed, imaging.R(0, 0, 10, 5), red)
	return []string{"allred", "halfred", "nored"},
		[]*imaging.Image{imaging.NewFilled(10, 10, red), halfRed, imaging.NewFilled(10, 10, blue)}
}

// editedFixture is the fixture's edited images over the binary ids.
func editedFixture(ids map[string]uint64) ([]string, []*editops.Sequence) {
	return []string{"nored-to-red", "allred-away", "halfred-crop", "paste-on-nored"}, []*editops.Sequence{
		// The no-red image recolored entirely to red: must match red queries
		// via bounds (max grows by |DR|).
		{BaseID: ids["nored"], Ops: []editops.Op{editops.Modify{Old: blue, New: red}}},
		// The all-red image possibly recolored away from red.
		{BaseID: ids["allred"], Ops: []editops.Op{editops.Modify{Old: red, New: green}}},
		// The half-red image cropped to its red half (widening null merge).
		{BaseID: ids["halfred"], Ops: editops.CropTo(imaging.R(0, 0, 10, 5))},
		// A non-widening target merge onto the no-red image.
		{BaseID: ids["allred"], Ops: editops.PasteOnto(imaging.R(0, 0, 2, 2), ids["nored"], 0, 0)},
	}
}

// buildFixture loads the fixture into a bare catalog.
func buildFixture(t *testing.T) (*catalog.Catalog, *rules.Engine, map[string]uint64) {
	t.Helper()
	cat := catalog.New()
	ids := map[string]uint64{}
	names, imgs := binaryFixture()
	for i, img := range imgs {
		id, err := cat.AddBinary(names[i], img.W, img.H, histogram.Extract(img, q4))
		if err != nil {
			t.Fatal(err)
		}
		ids[names[i]] = id
	}
	names, seqs := editedFixture(ids)
	for i, seq := range seqs {
		base, err := cat.Binary(seq.BaseID)
		if err != nil {
			t.Fatal(err)
		}
		id, err := cat.AddEdited(names[i], seq, rules.SequenceIsWideningFor(seq.Ops, base.W, base.H))
		if err != nil {
			t.Fatal(err)
		}
		ids[names[i]] = id
	}
	return cat, rules.NewEngine(q4, imaging.RGB{}, cat), ids
}

// fixtureDB loads the same fixture into an in-memory database.
func fixtureDB(t *testing.T) (*core.DB, map[string]uint64) {
	t.Helper()
	ctx := context.Background()
	db, err := core.Open(core.Config{Quantizer: q4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ids := map[string]uint64{}
	names, imgs := binaryFixture()
	for i, img := range imgs {
		if ids[names[i]], err = db.InsertImageCtx(ctx, 0, names[i], img); err != nil {
			t.Fatal(err)
		}
	}
	names, seqs := editedFixture(ids)
	for i, seq := range seqs {
		if ids[names[i]], err = db.InsertEditedCtx(ctx, 0, names[i], seq); err != nil {
			t.Fatal(err)
		}
	}
	return db, ids
}

func redRange(lo, hi float64) query.Range {
	return query.Range{Bin: q4.Bin(red), PctMin: lo, PctMax: hi}
}

func rangeRBM(t *testing.T, db *core.DB, q query.Range) *rbm.Result {
	t.Helper()
	res, err := db.RangeQueryCtx(context.Background(), q, core.ModeRBM)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// check gives one fixture image the verdict, with the entries the scan
// would hand it.
func check(t *testing.T, cat *catalog.Catalog, engine *rules.Engine, id uint64, q query.Range, st *rbm.Stats) bool {
	t.Helper()
	obj, err := cat.Edited(id)
	if err != nil {
		t.Fatal(err)
	}
	base, err := cat.Binary(obj.Seq.BaseID)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := rbm.CheckEdited(engine, obj, base, q, st)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func TestRangeExactBinaries(t *testing.T) {
	db, ids := fixtureDB(t)
	res := rangeRBM(t, db, redRange(0.9, 1.0))
	if !slices.Contains(res.IDs, ids["allred"]) {
		t.Fatal("all-red binary missing")
	}
	if slices.Contains(res.IDs, ids["halfred"]) || slices.Contains(res.IDs, ids["nored"]) {
		t.Fatal("non-matching binary returned")
	}
	if res.Stats.BinariesChecked != 3 {
		t.Fatalf("BinariesChecked = %d", res.Stats.BinariesChecked)
	}
}

func TestRangeEditedBounds(t *testing.T) {
	cat, engine, ids := buildFixture(t)
	// "at least 90% red": the recolored no-red image COULD be fully red, and
	// so could the crop to the half-red image's red half.
	var st rbm.Stats
	for _, name := range []string{"nored-to-red", "halfred-crop"} {
		if !check(t, cat, engine, ids[name], redRange(0.9, 1.0), &st) {
			t.Fatalf("%s: bounds-matching edited image rejected", name)
		}
	}
	// Each verdict is one rule walk over the whole sequence, its rules
	// counted per operation type.
	crop := editops.CropTo(imaging.R(0, 0, 10, 5))
	want := rbm.Stats{EditedWalked: 2, OpsEvaluated: 1 + len(crop)}
	want.RulesByKind[editops.KindModify]++
	for _, op := range crop {
		want.RulesByKind[op.Kind()]++
	}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	// Through a query, every edited image gets a rule walk under RBM.
	db, dbIDs := fixtureDB(t)
	res := rangeRBM(t, db, redRange(0.9, 1.0))
	for _, name := range []string{"nored-to-red", "halfred-crop"} {
		if !slices.Contains(res.IDs, dbIDs[name]) {
			t.Fatalf("%s: bounds-matching edited image missing", name)
		}
	}
	if res.Stats.EditedWalked != 4 || res.Stats.EditedSkipped != 0 {
		t.Fatalf("RBM query stats %+v: want 4 edited walked, none skipped", res.Stats)
	}
}

func TestRangePrunesImpossibleEdited(t *testing.T) {
	cat, engine, ids := buildFixture(t)
	// "at most 3% red": paste-on-nored pastes a 2x2 block of the all-red
	// image onto the 10x10 no-red one, so at least 4% of it is red.
	var st rbm.Stats
	if check(t, cat, engine, ids["paste-on-nored"], redRange(0, 0.03), &st) {
		t.Fatal("provably-red image admitted by an at-most-3%-red query")
	}
	db, dbIDs := fixtureDB(t)
	res := rangeRBM(t, db, redRange(0, 0.03))
	if slices.Contains(res.IDs, dbIDs["paste-on-nored"]) {
		t.Fatal("provably-red image returned by an at-most-3%-red query")
	}
	if !slices.Contains(res.IDs, dbIDs["nored"]) {
		t.Fatal("no-red binary missing from an at-most query")
	}
}

func TestRangeResultsSorted(t *testing.T) {
	db, _ := fixtureDB(t)
	res := rangeRBM(t, db, redRange(0, 1))
	for i := 1; i < len(res.IDs); i++ {
		if res.IDs[i-1] >= res.IDs[i] {
			t.Fatalf("ids not sorted: %v", res.IDs)
		}
	}
	// [0,1] matches everything.
	if n := len(db.Binaries()) + len(db.EditedIDs()); len(res.IDs) != n {
		t.Fatalf("full-range query returned %d of %d", len(res.IDs), n)
	}
}

func TestRangeValidates(t *testing.T) {
	db, _ := fixtureDB(t)
	for _, q := range []query.Range{{Bin: -1}, {Bin: 0, PctMin: 0.9, PctMax: 0.1}} {
		if _, err := db.RangeQueryCtx(context.Background(), q, core.ModeRBM); err == nil {
			t.Fatalf("invalid query %+v accepted", q)
		}
	}
}

func TestCheckEditedRejectsBinaryID(t *testing.T) {
	cat, engine, ids := buildFixture(t)
	obj, err := cat.Binary(ids["allred"])
	if err != nil {
		t.Fatal(err)
	}
	var st rbm.Stats
	if _, err := rbm.CheckEdited(engine, obj, obj, redRange(0, 1), &st); err == nil {
		t.Fatal("CheckEdited accepted a binary image")
	}
}

// A Merge target can only be deleted after the images that merge it, so a
// verdict on an entry fetched before both went drops the image instead of
// failing the query.
func TestCheckEditedDropsVanishedMergeTarget(t *testing.T) {
	cat, engine, ids := buildFixture(t)
	obj, err := cat.Edited(ids["paste-on-nored"])
	if err != nil {
		t.Fatal(err)
	}
	base, err := cat.Binary(obj.Seq.BaseID)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"paste-on-nored", "nored-to-red", "nored"} {
		if err := cat.Delete(ids[name]); err != nil {
			t.Fatal(err)
		}
	}
	var st rbm.Stats
	if ok, err := rbm.CheckEdited(engine, obj, base, redRange(0, 1), &st); ok || err != nil {
		t.Fatalf("verdict over a vanished Merge target: %v, %v", ok, err)
	}
}
