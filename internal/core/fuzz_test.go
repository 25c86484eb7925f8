package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/query"
	"repro/internal/stree"
)

// fuzzDB builds one small shared database for the parser fuzz targets: the
// interesting surface is the parser plus the query dispatch, so the corpus
// stays tiny and each fuzz iteration cheap.
func fuzzDB(f *testing.F) *DB {
	f.Helper()
	db := memDB(f)
	populate(f, db, 3, 2, 0.4, 42)
	return db
}

// checkLimitPrefixes is the fuzzers' referee for paged evaluation: under
// limit 1 and 7 every bound-based mode must return the unlimited answer's
// prefix.
func checkLimitPrefixes(t *testing.T, text string, full []uint64, run func(opts ...QueryOption) ([]uint64, error)) {
	t.Helper()
	for _, mode := range []Mode{ModeRBM, ModeBWM, ModeIndexed} {
		for _, limit := range []int{1, 7} {
			got, err := run(mode, WithLimit(limit))
			if err != nil {
				t.Fatalf("%v limit=%d failed on accepted query %q: %v", mode, limit, text, err)
			}
			if want := full[:min(limit, len(full))]; !sameIDs(got, want) {
				t.Fatalf("%v limit=%d: %v, want prefix %v for %q", mode, limit, got, want, text)
			}
		}
	}
}

// FuzzRangeQueryText feeds arbitrary text through the range-query parser
// and, when it parses, through BWM, RBM and the S-tree index: the parser
// must never panic, a parsed query must execute, all three methods must
// agree, and each must return the answer's prefix under a limit.
func FuzzRangeQueryText(f *testing.F) {
	ctx := context.Background()
	db := fuzzDB(f)
	f.Add("at least 25% blue")
	f.Add("at most 10% red")
	f.Add("between 5% and 95% green")
	f.Add("at least 0% white")
	f.Add("exactly 100% navy")
	f.Add("at least 25 blue")
	f.Add("")
	f.Add("%%%")
	f.Add("at least NaN% blue")
	f.Fuzz(func(t *testing.T, text string) {
		bwm, err := db.RangeQueryTextCtx(ctx, text, ModeBWM)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		rbm, err := db.RangeQueryTextCtx(ctx, text, ModeRBM)
		if err != nil {
			t.Fatalf("parsed under BWM but failed under RBM: %v", err)
		}
		if !sameIDs(bwm.IDs, rbm.IDs) {
			t.Fatalf("BWM %v != RBM %v for %q", bwm.IDs, rbm.IDs, text)
		}
		idx, err := db.RangeQueryTextCtx(ctx, text, ModeIndexed)
		if err != nil {
			t.Fatalf("parsed under BWM but failed under indexed: %v", err)
		}
		if !sameIDs(bwm.IDs, idx.IDs) {
			t.Fatalf("BWM %v != indexed %v for %q", bwm.IDs, idx.IDs, text)
		}
		for i := 1; i < len(bwm.IDs); i++ {
			if bwm.IDs[i-1] >= bwm.IDs[i] {
				t.Fatalf("ids not strictly ascending: %v", bwm.IDs)
			}
		}
		checkLimitPrefixes(t, text, bwm.IDs, func(opts ...QueryOption) ([]uint64, error) {
			res, err := db.RangeQueryTextCtx(ctx, text, opts...)
			if err != nil {
				return nil, err
			}
			return res.IDs, nil
		})
	})
}

// FuzzCompoundQueryText does the same for the compound-query parser
// (connective splitting plus per-term parsing).
func FuzzCompoundQueryText(f *testing.F) {
	ctx := context.Background()
	db := fuzzDB(f)
	f.Add("at least 20% red and at most 10% blue")
	f.Add("at least 5% green or at least 5% blue")
	f.Add("at least 1% red and at least 1% blue and at least 1% green")
	f.Add("at least 20% red and")
	f.Add("and or and")
	f.Add("at least 20% red or at most 10% blue and at least 5% green")
	f.Add("at least 20% red and at most NaN% blue")
	f.Fuzz(func(t *testing.T, text string) {
		bwm, err := db.CompoundQueryTextCtx(ctx, text, ModeBWM)
		if err != nil {
			return
		}
		rbm, err := db.CompoundQueryTextCtx(ctx, text, ModeRBM)
		if err != nil {
			t.Fatalf("parsed under BWM but failed under RBM: %v", err)
		}
		if !sameIDs(bwm.IDs, rbm.IDs) {
			t.Fatalf("BWM %v != RBM %v for %q", bwm.IDs, rbm.IDs, text)
		}
		idx, err := db.CompoundQueryTextCtx(ctx, text, ModeIndexed)
		if err != nil {
			t.Fatalf("parsed under BWM but failed under indexed: %v", err)
		}
		if !sameIDs(bwm.IDs, idx.IDs) {
			t.Fatalf("BWM %v != indexed %v for %q", bwm.IDs, idx.IDs, text)
		}
		for i := 1; i < len(bwm.IDs); i++ {
			if bwm.IDs[i-1] >= bwm.IDs[i] {
				t.Fatalf("ids not strictly ascending: %v", bwm.IDs)
			}
		}
		checkLimitPrefixes(t, text, bwm.IDs, func(opts ...QueryOption) ([]uint64, error) {
			res, err := db.CompoundQueryTextCtx(ctx, text, opts...)
			if err != nil {
				return nil, err
			}
			return res.IDs, nil
		})
	})
}

// FuzzMultiRangeModes draws a multi-bin query from its inputs — the bin set
// from a mask over the first 64 bins, the interval from two bytes — and
// holds RBM, BWM and the S-tree to one answer that contains the
// instantiated one, each returning its prefix under a limit. pick's low
// bits move the low end, the high end or both onto a sum the corpus
// attains over the bin set (attainedSums: a binary image's sum, an edited
// image's summed bound; the end's byte picks which), and its next bit one
// float step past it, inwards — where the inclusive ends and the S-tree's
// ε-band re-check decide.
func FuzzMultiRangeModes(f *testing.F) {
	ctx := context.Background()
	db := fuzzDB(f)
	bins := db.cfg.Quantizer.Bins()
	f.Add(uint64(1), uint8(0), uint8(255), uint8(0))
	f.Add(uint64(0x8421), uint8(25), uint8(128), uint8(0))
	f.Add(uint64(0xff00ff00ff00ff00), uint8(0), uint8(3), uint8(0))
	f.Add(^uint64(0), uint8(250), uint8(255), uint8(0))
	f.Add(uint64(0), uint8(0), uint8(255), uint8(0))
	f.Add(uint64(6), uint8(200), uint8(100), uint8(0))
	f.Add(uint64(0x8421), uint8(3), uint8(255), uint8(1))
	f.Add(uint64(0x0f0f), uint8(0), uint8(7), uint8(2))
	f.Add(uint64(0xff00ff00ff00ff00), uint8(5), uint8(5), uint8(3))
	f.Add(uint64(0x8421), uint8(4), uint8(255), uint8(5))
	f.Add(uint64(0x0f0f), uint8(0), uint8(9), uint8(6))
	f.Fuzz(func(t *testing.T, mask uint64, lo, hi, pick uint8) {
		q := query.MultiRange{PctMin: float64(lo) / 255, PctMax: float64(hi) / 255}
		for b := 0; b < min(bins, 64); b++ {
			if mask>>b&1 == 1 {
				q.Bins = append(q.Bins, b)
			}
		}
		if pick&3 != 0 && len(q.Bins) > 0 {
			sums := attainedSums(t, db, q.Bins)
			at := func(b uint8) float64 { return sums[int(b)%len(sums)].sum }
			if pick&1 != 0 {
				if q.PctMin = at(lo); pick&4 != 0 {
					q.PctMin = math.Nextafter(q.PctMin, 2)
				}
			}
			if pick&2 != 0 {
				if q.PctMax = at(hi); pick&4 != 0 {
					q.PctMax = math.Nextafter(q.PctMax, -1)
				}
			}
		}
		run := func(opts ...QueryOption) ([]uint64, error) {
			res, err := db.RangeQueryMultiCtx(ctx, q, opts...)
			if err != nil {
				return nil, err
			}
			return res.IDs, nil
		}
		rbm, err := run(ModeRBM)
		if err != nil {
			if q.Validate(bins) == nil {
				t.Fatalf("valid query %+v failed: %v", q, err)
			}
			return
		}
		truth, err := run(ModeInstantiate)
		if err != nil {
			t.Fatal(err)
		}
		if !subset(truth, rbm) {
			t.Fatalf("%+v: RBM %v misses instantiated %v", q, rbm, truth)
		}
		for _, mode := range []Mode{ModeBWM, ModeIndexed} {
			got, err := run(mode)
			if err != nil {
				t.Fatalf("%+v: %v failed: %v", q, mode, err)
			}
			if !sameIDs(got, rbm) {
				t.Fatalf("%+v: %v %v != RBM %v", q, mode, got, rbm)
			}
		}
		checkLimitPrefixes(t, fmt.Sprintf("%+v", q), rbm, run)
	})
}

// FuzzKNNAgainstBruteForce turns its inputs into a small database with
// forced ties — some bases stored again, up to 24 times, each copy with an
// identity edit — a probe (a stored object's own histogram, or a
// stranger's), a k and a metric, and holds the tree's k-NN and
// within-distance answers to the instantiate-everything ranking: ids and
// distances, serial ≡ parallel. The tree is built at the smallest fanout,
// so tied subtrees are pruned at inner nodes, not only inside one leaf.
func FuzzKNNAgainstBruteForce(f *testing.F) {
	ctx := context.Background()
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(7), uint8(3), uint8(2), uint8(4), uint8(1), uint8(0))
	f.Add(int64(42), uint8(9), uint8(255), uint8(30), uint8(2), uint8(0))
	// Base 1 stored 24 more times: the probe ties with 25 binaries and 48
	// identity edits, k = 10.
	f.Add(int64(3), uint8(27), uint8(0), uint8(9), uint8(0), uint8(23))
	f.Fuzz(func(t *testing.T, seed int64, shape, probeSel, kSel, metricSel, copies uint8) {
		db := memDB(t)
		db.sidx = stree.New(db.cfg.Quantizer.Bins(), 4)
		bases := populate(t, db, 2+int(shape%3), 1+int(shape/3%3), float64(shape/9%3)/2, seed)
		for i := 0; i < int(shape/27%4) && i < len(bases); i++ {
			img, err := db.Image(bases[i])
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c <= int(copies%24); c++ {
				dup, err := db.InsertImageCtx(ctx, 0, fmt.Sprintf("dup%d.%d", i, c), img)
				if err != nil {
					t.Fatal(err)
				}
				for _, base := range []uint64{bases[i], dup} {
					if _, err := db.InsertEditedCtx(ctx, 0, "same", identityEdit(base, img.W, img.H)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		ids := append(db.Binaries(), db.EditedIDs()...)
		probe := dataset.Flags(1, 32, 24, seed+int64(probeSel))[0].Img
		if int(probeSel) < 2*len(ids) { // two thirds of the byte's range on small corpora: stored probes tie
			img, err := db.Image(ids[int(probeSel)%len(ids)])
			if err != nil {
				t.Fatal(err)
			}
			if img.Size() > 0 {
				probe = img
			}
		}
		requireSimilarityEqualsBruteForce(t, db, histogram.Extract(probe, db.Quantizer()),
			[]query.Metric{query.Metric(metricSel % 3)}, []int{1 + int(kSel)%(len(ids)+3)})
	})
}
