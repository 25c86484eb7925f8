package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/colorspace"
	"repro/internal/dataset"
	"repro/internal/imaging"
	"repro/internal/query"
)

func TestMultiRangeModesAgreeAndCoverGroundTruth(t *testing.T) {
	ctx := context.Background()
	db := memDB(t)
	populate(t, db, 7, 4, 0.3, 71)
	rng := rand.New(rand.NewSource(4))
	bins := db.Quantizer().Bins()
	for trial := 0; trial < 50; trial++ {
		// Random small bin set + random interval.
		set := map[int]bool{}
		for len(set) < 1+rng.Intn(5) {
			set[rng.Intn(bins)] = true
		}
		var q query.MultiRange
		for b := range set {
			q.Bins = append(q.Bins, b)
		}
		q.PctMin = 0.4 * rng.Float64()
		q.PctMax = q.PctMin + 0.1 + 0.5*rng.Float64()
		if q.PctMax > 1 {
			q.PctMax = 1
		}

		a, err := db.RangeQueryMultiCtx(ctx, q, ModeRBM)
		if err != nil {
			t.Fatal(err)
		}
		b, err := db.RangeQueryMultiCtx(ctx, q, ModeBWM)
		if err != nil {
			t.Fatal(err)
		}
		c, err := db.RangeQueryMultiCtx(ctx, q, ModeIndexed)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(a.IDs, b.IDs) || !sameIDs(a.IDs, c.IDs) {
			t.Fatalf("trial %d: modes disagree: %v %v %v", trial, a.IDs, b.IDs, c.IDs)
		}
		gt, err := db.RangeQueryMultiCtx(ctx, q, ModeInstantiate)
		if err != nil {
			t.Fatal(err)
		}
		if !subset(gt.IDs, a.IDs) {
			t.Fatalf("trial %d: multi-range false negative: truth %v, bounds %v", trial, gt.IDs, a.IDs)
		}
	}
}

func TestMultiRangeBWMSkips(t *testing.T) {
	db := memDB(t)
	populate(t, db, 8, 5, 0.1, 72)
	// A permissive query most bases satisfy → BWM must skip.
	bins, err := colorspace.FamilyForName("red", db.Quantizer())
	if err != nil {
		t.Fatal(err)
	}
	q := query.MultiRange{Bins: bins, PctMin: 0, PctMax: 1}
	res, err := db.RangeQueryMultiCtx(context.Background(), q, ModeBWM)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.EditedSkipped == 0 {
		t.Fatalf("no skips on a [0,1] query: %+v", res.Stats)
	}
}

func TestMultiRangeSingleBinEqualsRange(t *testing.T) {
	ctx := context.Background()
	db := memDB(t)
	populate(t, db, 5, 3, 0.2, 73)
	bin, _ := db.cat.Binaries(), 0
	_ = bin
	r := query.Range{Bin: db.Quantizer().Bin(dataset.Red), PctMin: 0.1, PctMax: 0.8}
	m := query.MultiRange{Bins: []int{r.Bin}, PctMin: r.PctMin, PctMax: r.PctMax}
	a, err := db.RangeQueryCtx(ctx, r, ModeRBM)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.RangeQueryMultiCtx(ctx, m, ModeRBM)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(a.IDs, b.IDs) {
		t.Fatalf("single-bin multi-range differs: %v vs %v", a.IDs, b.IDs)
	}
}

func TestRangeQueryColorFamily(t *testing.T) {
	ctx := context.Background()
	db := memDB(t)
	// Two blues that land in DIFFERENT rgb4 bins but the same family.
	deepBlue := imaging.RGB{R: 0, G: 51, B: 204}
	midBlue := imaging.RGB{R: 40, G: 90, B: 230}
	if db.Quantizer().Bin(deepBlue) == db.Quantizer().Bin(midBlue) {
		t.Fatalf("test colors share a bin; pick different ones")
	}
	a, _ := db.InsertImageCtx(ctx, 0, "deep", imaging.NewFilled(8, 8, deepBlue))
	b, _ := db.InsertImageCtx(ctx, 0, "mid", imaging.NewFilled(8, 8, midBlue))
	db.InsertImageCtx(ctx, 0, "red", imaging.NewFilled(8, 8, dataset.Red))

	// The single-bin query only finds the exact-bin blue...
	single, err := db.RangeQueryTextCtx(ctx, "at least 50% blue", ModeBWM)
	if err != nil {
		t.Fatal(err)
	}
	if len(single.IDs) != 1 || single.IDs[0] != a {
		t.Fatalf("single-bin ids %v", single.IDs)
	}
	// ...the family query finds both blues and not the red.
	family, err := db.RangeQueryColorFamilyCtx(ctx, "blue", 0.5, 1, ModeBWM)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(family.IDs, []uint64{a, b}) {
		t.Fatalf("family ids %v", family.IDs)
	}
	if _, err := db.RangeQueryColorFamilyCtx(ctx, "nope", 0, 1, ModeBWM); err == nil {
		t.Fatal("unknown color family accepted")
	}
}

func TestMultiRangeValidation(t *testing.T) {
	ctx := context.Background()
	db := memDB(t)
	if _, err := db.RangeQueryMultiCtx(ctx, query.MultiRange{}, ModeBWM); err == nil {
		t.Fatal("empty bin set accepted")
	}
	if _, err := db.RangeQueryMultiCtx(ctx, query.MultiRange{Bins: []int{0, 0}, PctMax: 1}, ModeBWM); err == nil {
		t.Fatal("duplicate bins accepted")
	}
	if _, err := db.RangeQueryMultiCtx(ctx, query.MultiRange{Bins: []int{1 << 20}, PctMax: 1}, ModeBWM); err == nil {
		t.Fatal("out-of-range bin accepted")
	}
	if _, err := db.RangeQueryMultiCtx(ctx, query.MultiRange{Bins: []int{0}, PctMin: math.NaN(), PctMax: 1}, ModeBWM); err == nil {
		t.Fatal("NaN lower percentage accepted")
	}
	if _, err := db.RangeQueryMultiCtx(ctx, query.MultiRange{Bins: []int{0}, PctMax: math.NaN()}, ModeBWM); err == nil {
		t.Fatal("NaN upper percentage accepted")
	}
	if _, err := db.RangeQueryMultiCtx(ctx, query.MultiRange{Bins: []int{0}, PctMax: 1}, Mode(99)); err == nil {
		t.Fatal("bad mode accepted")
	}
}
