package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/query"
	"repro/internal/stree"
)

// fuzzDB builds one small shared database for the parser fuzz targets: the
// interesting surface is the parser plus the query dispatch, so the corpus
// stays tiny and each fuzz iteration cheap. Parallelism is pinned to 2 so
// the fuzzers also exercise the fan-out path.
func fuzzDB(f *testing.F) *DB {
	f.Helper()
	db, err := Open(Config{Parallelism: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { db.Close() })
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
	db := fuzzDB(f)
	f.Add("at least 25% blue")
	f.Add("at most 10% red")
	f.Add("between 5% and 95% green")
	f.Add("at least 0% white")
	f.Add("exactly 100% navy")
	f.Add("at least 25 blue")
	f.Add("")
	f.Add("%%%")
	f.Fuzz(func(t *testing.T, text string) {
		bwm, err := db.RangeQueryText(text, ModeBWM)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		rbm, err := db.RangeQueryText(text, ModeRBM)
		if err != nil {
			t.Fatalf("parsed under BWM but failed under RBM: %v", err)
		}
		if !sameIDs(bwm.IDs, rbm.IDs) {
			t.Fatalf("BWM %v != RBM %v for %q", bwm.IDs, rbm.IDs, text)
		}
		idx, err := db.RangeQueryText(text, ModeIndexed)
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
			res, err := db.RangeQueryTextCtx(context.Background(), text, opts...)
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
	db := fuzzDB(f)
	f.Add("at least 20% red and at most 10% blue")
	f.Add("at least 5% green or at least 5% blue")
	f.Add("at least 1% red and at least 1% blue and at least 1% green")
	f.Add("at least 20% red and")
	f.Add("and or and")
	f.Add("at least 20% red or at most 10% blue and at least 5% green")
	f.Fuzz(func(t *testing.T, text string) {
		bwm, err := db.CompoundQueryText(text, ModeBWM)
		if err != nil {
			return
		}
		rbm, err := db.CompoundQueryText(text, ModeRBM)
		if err != nil {
			t.Fatalf("parsed under BWM but failed under RBM: %v", err)
		}
		if !sameIDs(bwm.IDs, rbm.IDs) {
			t.Fatalf("BWM %v != RBM %v for %q", bwm.IDs, rbm.IDs, text)
		}
		idx, err := db.CompoundQueryText(text, ModeIndexed)
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
			res, err := db.CompoundQueryTextCtx(context.Background(), text, opts...)
			if err != nil {
				return nil, err
			}
			return res.IDs, nil
		})
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
				dup, err := db.InsertImage(fmt.Sprintf("dup%d.%d", i, c), img)
				if err != nil {
					t.Fatal(err)
				}
				for _, base := range []uint64{bases[i], dup} {
					if _, err := db.InsertEdited("same", identityEdit(base, img.W, img.H)); err != nil {
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
