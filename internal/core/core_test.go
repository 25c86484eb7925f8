package core

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/colorspace"
	"repro/internal/dataset"
	"repro/internal/editops"
	"repro/internal/imaging"
	"repro/internal/query"
)

// populate fills a DB with flags and augmented edits, returning base ids.
func populate(t testing.TB, db *DB, nBase, perBase int, nonWideningFrac float64, seed int64) []uint64 {
	t.Helper()
	flags := dataset.Flags(nBase, 32, 24, seed)
	var baseIDs []uint64
	for _, f := range flags {
		id, err := db.InsertImage(f.Name, f.Img)
		if err != nil {
			t.Fatal(err)
		}
		baseIDs = append(baseIDs, id)
	}
	aug := dataset.NewAugmenter(dataset.AugmentConfig{
		PerBase:         perBase,
		OpsPerImage:     4,
		NonWideningFrac: nonWideningFrac,
		Seed:            seed + 1,
	})
	for i, f := range flags {
		others := make([]uint64, 0, len(baseIDs)-1)
		for j, id := range baseIDs {
			if j != i {
				others = append(others, id)
			}
		}
		for _, seq := range aug.ScriptsFor(baseIDs[i], f.Img, others) {
			if _, err := db.InsertEdited(f.Name+"-edit", seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	return baseIDs
}

func memDB(t testing.TB) *DB {
	t.Helper()
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestInsertAndGet(t *testing.T) {
	db := memDB(t)
	img := imaging.NewFilled(8, 8, dataset.Red)
	id, err := db.InsertImage("r", img)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := db.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Kind != catalog.KindBinary || obj.W != 8 {
		t.Fatalf("object %+v", obj)
	}
	got, err := db.Image(id)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(img) {
		t.Fatal("raster round trip failed")
	}
	// Returned raster is a copy.
	got.Set(0, 0, dataset.Blue)
	again, _ := db.Image(id)
	if again.At(0, 0) != dataset.Red {
		t.Fatal("Image returned aliased raster")
	}
}

func TestInsertRejectsEmpty(t *testing.T) {
	db := memDB(t)
	if _, err := db.InsertImage("x", imaging.New(0, 0)); err == nil {
		t.Fatal("empty image accepted")
	}
	if _, err := db.InsertImage("x", nil); err == nil {
		t.Fatal("nil image accepted")
	}
	if _, err := db.InsertEdited("x", nil); err == nil {
		t.Fatal("nil sequence accepted")
	}
	if _, err := db.InsertEdited("x", &editops.Sequence{BaseID: 99}); err == nil {
		t.Fatal("dangling base accepted")
	}
}

func TestImageInstantiatesEdited(t *testing.T) {
	db := memDB(t)
	base := imaging.NewFilled(6, 6, dataset.Red)
	baseID, _ := db.InsertImage("b", base)
	seq := &editops.Sequence{BaseID: baseID, Ops: []editops.Op{
		editops.Modify{Old: dataset.Red, New: dataset.Blue},
	}}
	eid, err := db.InsertEdited("e", seq)
	if err != nil {
		t.Fatal(err)
	}
	img, err := db.Image(eid)
	if err != nil {
		t.Fatal(err)
	}
	if img.CountColor(dataset.Blue) != 36 {
		t.Fatal("edited image not instantiated correctly")
	}
}

// TestAllModesAgree is the top-level equivalence property: BWM, RBM and
// the S-tree index return identical result sets for every query, and the
// instantiation ground truth is always a subset (no false negatives).
func TestAllModesAgree(t *testing.T) {
	db := memDB(t)
	populate(t, db, 8, 5, 0.3, 42)
	queries, err := dataset.RangeWorkload(dataset.WorkloadConfig{Queries: 80, Seed: 7}, db.Quantizer())
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		bwmRes, err := db.RangeQuery(q, ModeBWM)
		if err != nil {
			t.Fatal(err)
		}
		rbmRes, err := db.RangeQuery(q, ModeRBM)
		if err != nil {
			t.Fatal(err)
		}
		idxRes, err := db.RangeQuery(q, ModeIndexed)
		if err != nil {
			t.Fatal(err)
		}
		gtRes, err := db.RangeQuery(q, ModeInstantiate)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(bwmRes.IDs, rbmRes.IDs) {
			t.Fatalf("query %d (%+v): BWM %v != RBM %v", qi, q, bwmRes.IDs, rbmRes.IDs)
		}
		if !sameIDs(bwmRes.IDs, idxRes.IDs) {
			t.Fatalf("query %d: BWM %v != indexed %v", qi, bwmRes.IDs, idxRes.IDs)
		}
		if !subset(gtRes.IDs, bwmRes.IDs) {
			t.Fatalf("query %d: ground truth %v not a subset of BWM %v (false negative!)", qi, gtRes.IDs, bwmRes.IDs)
		}
		// Binary matches are identical between ground truth and bounds
		// methods (binary histograms are exact everywhere).
		if gtRes.Stats.BinariesChecked != bwmRes.Stats.BinariesChecked {
			t.Fatalf("query %d: binaries checked differ", qi)
		}
	}
}

func TestBWMDoesLessWorkThanRBM(t *testing.T) {
	db := memDB(t)
	populate(t, db, 10, 6, 0.2, 3)
	queries, _ := dataset.RangeWorkload(dataset.WorkloadConfig{Queries: 40, Seed: 5}, db.Quantizer())
	var rbmOps, bwmOps int
	for _, q := range queries {
		r, err := db.RangeQuery(q, ModeRBM)
		if err != nil {
			t.Fatal(err)
		}
		b, err := db.RangeQuery(q, ModeBWM)
		if err != nil {
			t.Fatal(err)
		}
		rbmOps += r.Stats.OpsEvaluated
		bwmOps += b.Stats.OpsEvaluated
	}
	if bwmOps >= rbmOps {
		t.Fatalf("BWM evaluated %d ops, RBM %d — no saving", bwmOps, rbmOps)
	}
}

func TestRangeQueryText(t *testing.T) {
	db := memDB(t)
	img := imaging.NewFilled(10, 10, dataset.Blue)
	id, _ := db.InsertImage("blueimg", img)
	res, err := db.RangeQueryText("at least 50% blue", ModeBWM)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 || res.IDs[0] != id {
		t.Fatalf("ids %v", res.IDs)
	}
	if _, err := db.RangeQueryText("gibberish", ModeBWM); err == nil {
		t.Fatal("bad query text accepted")
	}
	if _, err := db.RangeQuery(query.Range{Bin: 0, PctMin: 0, PctMax: 1}, Mode(99)); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestExpandToBases(t *testing.T) {
	db := memDB(t)
	base := imaging.NewFilled(6, 6, dataset.Red)
	baseID, _ := db.InsertImage("b", base)
	seq := &editops.Sequence{BaseID: baseID, Ops: []editops.Op{
		editops.Modify{Old: dataset.Red, New: dataset.Blue},
	}}
	eid, _ := db.InsertEdited("e", seq)
	got := db.ExpandToBases([]uint64{eid})
	if !sameIDs(got, []uint64{baseID, eid}) {
		t.Fatalf("expanded %v", got)
	}
	// Idempotent and duplicate-free.
	got2 := db.ExpandToBases([]uint64{eid, baseID, eid})
	if !sameIDs(got2, []uint64{baseID, eid}) {
		t.Fatalf("expanded %v", got2)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.esidb")
	db, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, db, 5, 3, 0.4, 11)
	queries, _ := dataset.RangeWorkload(dataset.WorkloadConfig{Queries: 20, Seed: 2}, db.Quantizer())
	var before [][]uint64
	for _, q := range queries {
		res, err := db.RangeQuery(q, ModeBWM)
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, res.IDs)
	}
	st1, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	st2, err := db2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st1.Catalog != st2.Catalog {
		t.Fatalf("catalog stats changed: %+v vs %+v", st1.Catalog, st2.Catalog)
	}
	if st1.BWMClustered != st2.BWMClustered || st1.BWMUnclassified != st2.BWMUnclassified {
		t.Fatal("BWM structure not rebuilt")
	}
	for i, q := range queries {
		res, err := db2.RangeQuery(q, ModeBWM)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(res.IDs, before[i]) {
			t.Fatalf("query %d differs after reopen: %v vs %v", i, res.IDs, before[i])
		}
	}
	// Rasters survive too (needed for instantiation).
	for _, id := range db2.Binaries() {
		if _, err := db2.Image(id); err != nil {
			t.Fatalf("raster %d: %v", id, err)
		}
	}
	gt, err := db2.RangeQuery(queries[0], ModeInstantiate)
	if err != nil {
		t.Fatal(err)
	}
	_ = gt
}

func TestPersistenceInsertAfterReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.esidb")
	db, _ := Open(Config{Path: path})
	img := imaging.NewFilled(8, 8, dataset.Green)
	id1, _ := db.InsertImage("a", img)
	db.Close()

	db2, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	id2, err := db2.InsertImage("b", imaging.NewFilled(8, 8, dataset.Red))
	if err != nil {
		t.Fatal(err)
	}
	if id2 <= id1 {
		t.Fatalf("id did not advance: %d then %d", id1, id2)
	}
	seq := &editops.Sequence{BaseID: id1, Ops: []editops.Op{editops.Modify{Old: dataset.Green, New: dataset.Red}}}
	if _, err := db2.InsertEdited("e", seq); err != nil {
		t.Fatal(err)
	}
	if err := db2.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestPersistenceRejectsQuantizerMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.esidb")
	db, _ := Open(Config{Path: path})
	db.InsertImage("a", imaging.NewFilled(4, 4, dataset.Red))
	db.Close()
	_, err := Open(Config{Path: path, Quantizer: colorspace.NewUniformRGB(8)})
	if !errors.Is(err, ErrIncompatible) {
		t.Fatalf("mismatch error = %v", err)
	}
}

func TestStatsAndFootprint(t *testing.T) {
	db := memDB(t)
	populate(t, db, 4, 3, 0.5, 9)
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Catalog.Binaries != 4 || st.Catalog.Edited != 12 {
		t.Fatalf("catalog stats %+v", st.Catalog)
	}
	if st.BWMClusters != 4 {
		t.Fatalf("clusters %d", st.BWMClusters)
	}
	if st.BWMClustered+st.BWMUnclassified != 12 {
		t.Fatalf("BWM split %d + %d", st.BWMClustered, st.BWMUnclassified)
	}
	if st.Persistent {
		t.Fatal("memory db marked persistent")
	}
	binB, edB, err := db.StorageFootprint()
	if err != nil {
		t.Fatal(err)
	}
	if binB != int64(4*32*24*3) {
		t.Fatalf("binary bytes %d", binB)
	}
	if edB <= 0 || edB >= binB {
		t.Fatalf("edited bytes %d vs binary %d — sequences should be far smaller", edB, binB)
	}
}

func TestCloseMakesDBUnusable(t *testing.T) {
	db, _ := Open(Config{})
	db.Close()
	if _, err := db.InsertImage("x", imaging.NewFilled(2, 2, dataset.Red)); err == nil {
		t.Fatal("insert after close succeeded")
	}
	if err := db.Close(); err != nil {
		t.Fatal("double close errored")
	}
}

func sameIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// subset reports whether every element of a appears in b (both sorted).
func subset(a, b []uint64) bool {
	i := 0
	for _, v := range a {
		for i < len(b) && b[i] < v {
			i++
		}
		if i >= len(b) || b[i] != v {
			return false
		}
	}
	return true
}

func TestOpenAdoptsStoredQuantizer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hsv.esidb")
	hsv := colorspace.NewUniformHSV(12, 2, 2)
	db, err := Open(Config{Path: path, Quantizer: hsv})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := db.InsertImage("x", imaging.NewFilled(8, 8, dataset.Blue))
	db.Close()

	// Reopen WITHOUT specifying the quantizer: it is adopted.
	db2, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Quantizer().Name() != "hsv12x2x2" {
		t.Fatalf("adopted quantizer %q", db2.Quantizer().Name())
	}
	if _, err := db2.Image(id); err != nil {
		t.Fatal(err)
	}
	res, err := db2.RangeQueryText("at least 50% blue", ModeBWM)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 {
		t.Fatalf("query on adopted quantizer: %v", res.IDs)
	}
	// An EXPLICIT mismatching quantizer still fails.
	if _, err := Open(Config{Path: path, Quantizer: colorspace.NewUniformRGB(8)}); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("explicit mismatch error = %v", err)
	}
}

// TestLargeScaleEquivalence drives the full equivalence property on a
// corpus an order of magnitude beyond the paper's (skipped under -short).
func TestLargeScaleEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("large corpus")
	}
	db := memDB(t)
	populate(t, db, 60, 8, 0.3, 2024) // 60 bases + 480 edits
	queries, err := dataset.RangeWorkload(dataset.WorkloadConfig{Queries: 60, Seed: 12}, db.Quantizer())
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		a, err := db.RangeQuery(q, ModeRBM)
		if err != nil {
			t.Fatal(err)
		}
		b, err := db.RangeQuery(q, ModeBWM)
		if err != nil {
			t.Fatal(err)
		}
		c, err := db.RangeQuery(q, ModeIndexed)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(a.IDs, b.IDs) || !sameIDs(a.IDs, c.IDs) {
			t.Fatalf("query %d: modes disagree at scale", qi)
		}
	}
	// Spot-check ground truth subset on a few queries (instantiation is
	// expensive at this scale).
	for _, q := range queries[:5] {
		gt, err := db.RangeQuery(q, ModeInstantiate)
		if err != nil {
			t.Fatal(err)
		}
		bwm, err := db.RangeQuery(q, ModeBWM)
		if err != nil {
			t.Fatal(err)
		}
		if !subset(gt.IDs, bwm.IDs) {
			t.Fatal("false negative at scale")
		}
	}
}
