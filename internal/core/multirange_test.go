package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/colorspace"
	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/imaging"
	"repro/internal/query"
	"repro/internal/rbm"
	"repro/internal/stree"
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

// TestMultiBinPointSumIsSumPct pins the argument that lets a multi-bin leaf
// decide a binary image with no catalog lookup: the image's point box
// holds its normalized histogram, and summing a leaf's columns over the
// query's bins in their order (binSums) adds the very floats
// query.MultiRange.SumPct adds, in the same order — bit for bit, for every
// colour family of rgb4 and rgb8 and random histograms, an empty one
// (total 0) among them.
func TestMultiBinPointSumIsSumPct(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, name := range []string{"rgb4", "rgb8"} {
		qz, err := colorspace.ParseQuantizer(name)
		if err != nil {
			t.Fatal(err)
		}
		bins := qz.Bins()
		hists := make(map[uint64]*histogram.Histogram)
		items := make([]stree.Item, 0, 200)
		for id := uint64(1); id <= 200; id++ {
			h := histogram.New(bins)
			if id > 1 { // image 1 is empty
				for n := rng.Intn(5000); n > 0; n-- {
					// Skewed draws leave most bins empty and a few heavy.
					b := rng.Intn(1 + rng.Intn(bins))
					h.Counts[b]++
					h.Total++
				}
			}
			hists[id] = h
			items = append(items, sidxBinaryItem(id, h, nil))
		}
		tr := stree.New(bins, sidxFanout)
		if err := tr.Bulk(items); err != nil {
			t.Fatal(err)
		}
		for _, color := range colorspace.ColorNames() {
			fam, err := colorspace.FamilyForName(color, qz)
			if err != nil {
				t.Fatal(err)
			}
			q := query.MultiRange{Bins: fam}
			seen := 0
			err = tr.Snapshot().Visit(func(_ stree.Boxes, out []stree.Overlap) {
				for i := range out {
					out[i] = stree.OverlapPartial
				}
			}, func(l *stree.Leaf, _ []stree.Overlap) error {
				sLo, sHi := (&binSums{bins: fam}).sum(l.Boxes())
				for i, id := range l.IDs() {
					seen++
					want := math.Float64bits(q.SumPct(hists[id]))
					if math.Float64bits(sLo[i]) != want || math.Float64bits(sHi[i]) != want {
						return fmt.Errorf("%s %s image %d: leaf sums [%v,%v], SumPct %v", name, color, id, sLo[i], sHi[i], q.SumPct(hists[id]))
					}
				}
				return nil
			}, &stree.VisitStats{})
			if err != nil {
				t.Fatal(err)
			}
			if seen != len(items) {
				t.Fatalf("%s %s: %d of %d images summed", name, color, seen, len(items))
			}
		}
	}
}

// attainedSum is a sum over a bin set that an image attains: a binary
// image's exact SumPct (both ends of its interval), or one end of an
// edited image's summed bounds.
type attainedSum struct {
	id     uint64
	sum    float64
	lo, hi bool // the sum is the low end of the image's interval, the high end
}

// attainedSums lists the sums over bins the database's images attain — the
// query ends at which the inclusive comparisons and the S-tree's ε-band
// re-check decide.
func attainedSums(t testing.TB, db *DB, bins []int) []attainedSum {
	t.Helper()
	q := query.MultiRange{Bins: bins}
	var sums []attainedSum
	for _, id := range db.Binaries() {
		obj, err := db.cat.Binary(id)
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, attainedSum{id, q.SumPct(obj.Hist), true, true})
	}
	var st rbm.Stats
	for _, id := range db.EditedIDs() {
		b, err := db.editedBoundsByID(id, &st)
		if err != nil || b == nil {
			t.Fatalf("edited %d: bounds %v", id, err)
		}
		lo, hi := sumBounds(b, bins)
		sums = append(sums, attainedSum{id, lo, true, false}, attainedSum{id, hi, false, true})
	}
	return sums
}

// TestMultiBinBoundaryEnds puts a multi-bin query's ends exactly on sums
// the corpus attains — an edited image's summed bound, a binary image's
// sum — and one float step past them, where the float sums a leaf decides
// from sit inside the ε band and the indexed mode falls back to the exact
// integers, and where every mode's inclusive comparison decides. Indexed ≡
// RBM ≡ BWM on every such query, each contains the instantiated answer,
// the image that attains an end is in, and one whose end the query misses
// by a step is out.
func TestMultiBinBoundaryEnds(t *testing.T) {
	ctx := context.Background()
	db := memDB(t)
	populate(t, db, 6, 3, 0.3, 45)
	for _, color := range []string{"sky", "blue", "orange"} {
		fam, err := colorspace.FamilyForName(color, db.Quantizer())
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range attainedSums(t, db, fam) {
			type probe struct {
				q  query.MultiRange
				in bool // whether image a.id is in the answer
			}
			probes := []probe{
				{query.MultiRange{Bins: fam, PctMin: a.sum, PctMax: 1}, true},
				{query.MultiRange{Bins: fam, PctMin: 0, PctMax: a.sum}, true},
				{query.MultiRange{Bins: fam, PctMin: a.sum, PctMax: a.sum}, true},
			}
			if a.hi && a.sum < 1 {
				probes = append(probes, probe{query.MultiRange{Bins: fam, PctMin: math.Nextafter(a.sum, 2), PctMax: 1}, false})
			}
			if a.lo && a.sum > 0 {
				probes = append(probes, probe{query.MultiRange{Bins: fam, PctMin: 0, PctMax: math.Nextafter(a.sum, -1)}, false})
			}
			for _, p := range probes {
				q := p.q
				answers := make(map[Mode][]uint64)
				for _, mode := range []Mode{ModeRBM, ModeBWM, ModeIndexed, ModeInstantiate} {
					res, err := db.RangeQueryMultiCtx(ctx, q, mode)
					if err != nil {
						t.Fatal(err)
					}
					answers[mode] = res.IDs
				}
				rbm := answers[ModeRBM]
				if !sameIDs(answers[ModeBWM], rbm) || !sameIDs(answers[ModeIndexed], rbm) {
					t.Fatalf("%s %+v: RBM %v, BWM %v, indexed %v", color, q, rbm, answers[ModeBWM], answers[ModeIndexed])
				}
				if !subset(answers[ModeInstantiate], rbm) {
					t.Fatalf("%s %+v: RBM %v misses instantiated %v", color, q, rbm, answers[ModeInstantiate])
				}
				if slices.Contains(rbm, a.id) != p.in {
					t.Fatalf("%s %+v: image %d attains %v: in the answer %v, want %v", color, q, a.id, a.sum, !p.in, p.in)
				}
			}
		}
	}
}
