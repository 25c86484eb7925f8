package mmdb_test

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	mmdb "repro"
)

var (
	red  = mmdb.RGB{R: 204, G: 0, B: 0}
	blue = mmdb.RGB{R: 0, G: 51, B: 204}
)

func openMem(t *testing.T, opts ...mmdb.Option) *mmdb.DB {
	t.Helper()
	db, err := mmdb.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestQuickstartFlow(t *testing.T) {
	ctx := context.Background()
	db := openMem(t)
	img := mmdb.NewFilledImage(10, 10, blue)
	id, err := db.InsertImageCtx(ctx, "bluesquare", img)
	if err != nil {
		t.Fatal(err)
	}
	seq := &mmdb.Sequence{BaseID: id, Ops: []mmdb.Op{
		mmdb.Modify{Old: blue, New: red},
	}}
	eid, err := db.InsertEditedCtx(ctx, "redsquare", seq)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryCtx(ctx, "at least 50% blue")
	if err != nil {
		t.Fatal(err)
	}
	// Both the binary (exactly blue) and the edited (maybe still blue) match.
	if len(res.IDs) != 2 {
		t.Fatalf("ids %v", res.IDs)
	}
	res2, err := db.QueryCtx(ctx, "at least 50% red")
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.IDs) != 1 || res2.IDs[0] != eid {
		t.Fatalf("red ids %v", res2.IDs)
	}
}

func TestAugmentAndModes(t *testing.T) {
	ctx := context.Background()
	db := openMem(t)
	a, _ := db.InsertImageCtx(ctx, "a", mmdb.NewFilledImage(16, 12, red))
	b, _ := db.InsertImageCtx(ctx, "b", mmdb.NewFilledImage(16, 12, blue))
	ids, err := db.AugmentCtx(ctx, a, mmdb.AugmentOptions{PerBase: 4, OpsPerImage: 3, NonWideningFrac: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 {
		t.Fatalf("augmented %d", len(ids))
	}
	if _, err := db.AugmentCtx(ctx, b, mmdb.AugmentOptions{PerBase: 2, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Catalog.Edited != 6 || st.Catalog.Binaries != 2 {
		t.Fatalf("stats %+v", st.Catalog)
	}
	q, err := db.ParseQuery("at least 30% red")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []mmdb.Mode{mmdb.ModeBWM, mmdb.ModeRBM, mmdb.ModeIndexed, mmdb.ModeInstantiate} {
		if _, err := db.RangeQueryCtx(ctx, q, mode); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

func TestQueryByExample(t *testing.T) {
	ctx := context.Background()
	db := openMem(t)
	db.InsertImageCtx(ctx, "r", mmdb.NewFilledImage(8, 8, red))
	target, _ := db.InsertImageCtx(ctx, "b", mmdb.NewFilledImage(8, 8, blue))
	probe := mmdb.NewFilledImage(8, 8, blue)
	matches, _, err := db.QueryByExampleCtx(ctx, probe, 1, mmdb.MetricL1)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].ID != target || matches[0].Dist != 0 {
		t.Fatalf("matches %v", matches)
	}
}

func TestPersistentFacade(t *testing.T) {
	path := filepath.Join(t.TempDir(), "facade.esidb")
	db, err := mmdb.Open(mmdb.WithPath(path))
	if err != nil {
		t.Fatal(err)
	}
	id, _ := db.InsertImageCtx(context.Background(), "x", mmdb.NewFilledImage(12, 12, red))
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := mmdb.Open(mmdb.WithPath(path))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	img, err := db2.Image(id)
	if err != nil {
		t.Fatal(err)
	}
	if img.CountColor(red) != 144 {
		t.Fatal("raster lost across reopen")
	}
}

func TestSegmentedFacade(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "segfacade.esidb")
	db, err := mmdb.Open(mmdb.WithPath(path), mmdb.WithSegmentStore(mmdb.SegmentOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	id, _ := db.InsertImageCtx(ctx, "x", mmdb.NewFilledImage(12, 12, red))
	base, _ := db.InsertImageCtx(ctx, "base", mmdb.NewFilledImage(6, 6, blue))
	seq := &mmdb.Sequence{BaseID: base, Ops: mmdb.Recolor(mmdb.R(0, 0, 6, 6), [2]mmdb.RGB{blue, red})}
	eid, err := db.InsertEditedCtx(ctx, "e", seq)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := db.SegmentStats(); !ok {
		t.Fatal("persistent database should expose engine stats")
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// WithSegmentStore only tunes the one engine: a bare WithPath reopens
	// what the zero SegmentOptions wrote.
	db2, err := mmdb.Open(mmdb.WithPath(path))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	img, err := db2.Image(id)
	if err != nil {
		t.Fatal(err)
	}
	if img.CountColor(red) != 144 {
		t.Fatal("raster lost across reopen")
	}
	res, err := db2.QueryCtx(ctx, "at least 90% red")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rid := range res.IDs {
		if rid == eid {
			found = true
		}
	}
	if !found {
		t.Fatalf("edited image missing from query after reopen: %v", res.IDs)
	}
	man, ok := db2.SegmentManifest()
	if !ok {
		t.Fatal("persistent database should expose its manifest")
	}
	if len(man.Segments) == 0 {
		t.Fatal("sync should have sealed at least one segment")
	}
	chk, err := db2.CheckStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(chk.Problems) != 0 {
		t.Fatalf("store check problems: %v", chk.Problems)
	}
}

func TestExpandToBases(t *testing.T) {
	ctx := context.Background()
	db := openMem(t)
	base, _ := db.InsertImageCtx(ctx, "base", mmdb.NewFilledImage(6, 6, blue))
	seq := &mmdb.Sequence{BaseID: base, Ops: mmdb.Recolor(mmdb.R(0, 0, 6, 6), [2]mmdb.RGB{blue, red})}
	eid, _ := db.InsertEditedCtx(ctx, "e", seq)
	res, err := db.QueryCtx(ctx, "at least 90% red")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 || res.IDs[0] != eid {
		t.Fatalf("ids %v", res.IDs)
	}
	expanded := db.ExpandToBases(res.IDs)
	if len(expanded) != 2 || expanded[0] != base {
		t.Fatalf("expanded %v", expanded)
	}
}

func TestBuildersThroughFacade(t *testing.T) {
	ctx := context.Background()
	db := openMem(t)
	base, _ := db.InsertImageCtx(ctx, "base", mmdb.NewFilledImage(8, 8, blue))
	ops := append(mmdb.CropTo(mmdb.R(0, 0, 4, 4)), mmdb.BoxBlur(mmdb.R(0, 0, 4, 4))...)
	eid, err := db.InsertEditedCtx(ctx, "crop", &mmdb.Sequence{BaseID: base, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	img, err := db.Image(eid)
	if err != nil {
		t.Fatal(err)
	}
	if img.W != 4 || img.H != 4 {
		t.Fatalf("instantiated %dx%d", img.W, img.H)
	}
	bin, err := db.BinForColor("blue")
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Bounds(eid, bin)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := b.PctRange()
	if lo < 0 || hi > 1 || lo > hi {
		t.Fatalf("bounds [%v,%v]", lo, hi)
	}
}

func TestSynthesizeThroughFacade(t *testing.T) {
	base := mmdb.NewFilledImage(3, 3, red)
	target := mmdb.NewFilledImage(5, 2, blue)
	ops, err := mmdb.Synthesize(base, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) == 0 {
		t.Fatal("no ops synthesized")
	}
}

func TestColorVocabulary(t *testing.T) {
	names := mmdb.ColorNames()
	if len(names) < 10 {
		t.Fatalf("only %d colors", len(names))
	}
	c, ok := mmdb.LookupColor("red")
	if !ok || c != red {
		t.Fatalf("red = %v %v", c, ok)
	}
}

func TestStorageFootprint(t *testing.T) {
	ctx := context.Background()
	db := openMem(t)
	id, _ := db.InsertImageCtx(ctx, "x", mmdb.NewFilledImage(20, 20, red))
	db.AugmentCtx(ctx, id, mmdb.AugmentOptions{PerBase: 5, Seed: 3})
	bin, ed, err := db.StorageFootprint()
	if err != nil {
		t.Fatal(err)
	}
	if bin != 1200 {
		t.Fatalf("binary bytes %d", bin)
	}
	if ed <= 0 || ed >= bin {
		t.Fatalf("edited bytes %d — the space saving is the point", ed)
	}
}

func TestSequenceTextFacade(t *testing.T) {
	seq := &mmdb.Sequence{BaseID: 4, Ops: []mmdb.Op{mmdb.Define{Region: mmdb.R(0, 0, 2, 2)}}}
	text := mmdb.FormatSequence(seq)
	got, err := mmdb.ParseSequence(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got.BaseID != 4 || len(got.Ops) != 1 {
		t.Fatalf("parsed %+v", got)
	}
}

func TestOptimizeSequenceFacade(t *testing.T) {
	ctx := context.Background()
	db := openMem(t)
	base, _ := db.InsertImageCtx(ctx, "b", mmdb.NewFilledImage(8, 8, blue))
	seq := &mmdb.Sequence{BaseID: base, Ops: []mmdb.Op{
		mmdb.Define{Region: mmdb.R(0, 0, 8, 8)}, // redundant: initial DR
		mmdb.Modify{Old: red, New: red},         // self recolor
		mmdb.Modify{Old: blue, New: red},        // effective
		mmdb.Define{Region: mmdb.R(0, 0, 2, 2)}, // trailing
	}}
	opt, err := db.OptimizeSequence(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Ops) != 1 {
		t.Fatalf("optimized to %v", opt.Ops)
	}
	// Both versions instantiate identically.
	a, _ := db.InsertEditedCtx(ctx, "orig", seq)
	b, _ := db.InsertEditedCtx(ctx, "opt", opt)
	imgA, _ := db.Image(a)
	imgB, _ := db.Image(b)
	if !imgA.Equal(imgB) {
		t.Fatal("optimized sequence instantiates differently")
	}
	// Unknown base errors.
	if _, err := db.OptimizeSequence(&mmdb.Sequence{BaseID: 999}); err == nil {
		t.Fatal("unknown base accepted")
	}
}

func TestWithQuantizerName(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.esidb")
	db, err := mmdb.Open(mmdb.WithPath(path), mmdb.WithQuantizerName("hsv12x2x2"))
	if err != nil {
		t.Fatal(err)
	}
	if db.Quantizer().Name() != "hsv12x2x2" {
		t.Fatalf("quantizer %q", db.Quantizer().Name())
	}
	id, _ := db.InsertImageCtx(context.Background(), "b", mmdb.NewFilledImage(8, 8, blue))
	db.Close()

	// Reopen with no quantizer option: adopted from the store.
	db2, err := mmdb.Open(mmdb.WithPath(path))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Quantizer().Name() != "hsv12x2x2" {
		t.Fatalf("adopted %q", db2.Quantizer().Name())
	}
	if _, err := db2.Image(id); err != nil {
		t.Fatal(err)
	}
	// Bad name surfaces as an Open error.
	if _, err := mmdb.Open(mmdb.WithQuantizerName("bogus99")); err == nil {
		t.Fatal("bogus quantizer name accepted")
	}
}

func TestDumpLoadRoundTrip(t *testing.T) {
	ctx := context.Background()
	src := openMem(t)
	// Two bases and edits including a target merge (id remapping matters).
	a, _ := src.InsertImageCtx(ctx, "alpha", mmdb.NewFilledImage(10, 8, red))
	b, _ := src.InsertImageCtx(ctx, "beta", mmdb.NewFilledImage(6, 6, blue))
	src.InsertEditedCtx(ctx, "recolor", &mmdb.Sequence{BaseID: a, Ops: mmdb.Recolor(mmdb.R(0, 0, 10, 8), [2]mmdb.RGB{red, blue})})
	src.InsertEditedCtx(ctx, "paste", &mmdb.Sequence{BaseID: a, Ops: mmdb.PasteOnto(mmdb.R(0, 0, 4, 4), b, 1, 1)})

	dir := t.TempDir()
	if err := src.DumpTo(dir); err != nil {
		t.Fatal(err)
	}

	// Load into a database with a shifted id space.
	dst := openMem(t)
	dst.InsertImageCtx(ctx, "preexisting", mmdb.NewFilledImage(3, 3, blue))
	n, err := dst.LoadFrom(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("loaded %d objects", n)
	}
	// Every loaded object materializes identically to its source twin.
	srcIDs := append(src.Binaries(), src.EditedIDs()...)
	dstIDs := append(dst.Binaries()[1:], dst.EditedIDs()...) // skip preexisting
	if len(srcIDs) != len(dstIDs) {
		t.Fatalf("object counts differ: %d vs %d", len(srcIDs), len(dstIDs))
	}
	for i := range srcIDs {
		want, err := src.Image(srcIDs[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := dst.Image(dstIDs[i])
		if err != nil {
			t.Fatalf("materialize loaded %d: %v", dstIDs[i], err)
		}
		if !want.Equal(got) {
			t.Fatalf("object %d materializes differently after dump/load", i)
		}
	}
	// Queries work on the loaded database.
	if _, err := dst.QueryCtx(ctx, "at least 10% red"); err != nil {
		t.Fatal(err)
	}
}

func TestLoadFromMissingManifest(t *testing.T) {
	db := openMem(t)
	if _, err := db.LoadFrom(t.TempDir()); err == nil {
		t.Fatal("load without manifest succeeded")
	}
}

func TestFacadeQueryVariants(t *testing.T) {
	ctx := context.Background()
	db := openMem(t, mmdb.WithBackground(mmdb.RGB{R: 9, G: 9, B: 9}))
	a, _ := db.InsertImageCtx(ctx, "a", mmdb.NewFilledImage(8, 8, red))
	db.InsertImageCtx(ctx, "b", mmdb.NewFilledImage(8, 8, blue))

	// Compound through the facade.
	res, err := db.QueryCompoundCtx(ctx, "at least 50% red or at least 50% blue", mmdb.ModeBWM)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 2 {
		t.Fatalf("compound ids %v", res.IDs)
	}
	c, err := db.ParseQuery("at least 50% red")
	if err != nil {
		t.Fatal(err)
	}
	res2, err := db.CompoundQueryCtx(ctx, mmdb.Compound{Terms: []mmdb.Range{c}}, mmdb.ModeRBM)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.IDs) != 1 || res2.IDs[0] != a {
		t.Fatalf("structured compound %v", res2.IDs)
	}

	// Indexed mode through the facade.
	res3, err := db.QueryCtx(ctx, "at least 50% red", mmdb.ModeIndexed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.IDs) != 1 || res3.IDs[0] != a {
		t.Fatalf("indexed ids %v", res3.IDs)
	}

	// WithinDistance through the facade.
	matches, st, err := db.WithinDistanceCtx(ctx, mmdb.NewFilledImage(8, 8, red), 0.01, mmdb.MetricL1)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].ID != a {
		t.Fatalf("within-distance %v", matches)
	}
	if st.BinariesScored != 2 {
		t.Fatalf("scored %d", st.BinariesScored)
	}
	if _, _, err := db.WithinDistanceCtx(ctx, mmdb.NewFilledImage(8, 8, red), math.NaN(), mmdb.MetricL1); err == nil {
		t.Fatal("NaN distance accepted")
	}

	// Multi-probe query by examples.
	fused, _, err := db.QueryByExamplesCtx(ctx, []*mmdb.Image{
		mmdb.NewFilledImage(8, 8, red), mmdb.NewFilledImage(8, 8, blue),
	}, 2, mmdb.MetricL2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fused) != 2 || fused[0].Dist != 0 || fused[1].Dist != 0 {
		t.Fatalf("fused %v", fused)
	}

	// KNNBinary facade.
	h := mmdb.ExtractHistogram(mmdb.NewFilledImage(8, 8, blue), db.Quantizer())
	bm, err := db.KNNBinary(mmdb.KNN{Target: h, K: 1, Metric: mmdb.MetricL2})
	if err != nil || len(bm) != 1 {
		t.Fatalf("knn binary %v %v", bm, err)
	}

	// BIC index facade.
	idx, err := db.BuildBICIndex()
	if err != nil {
		t.Fatal(err)
	}
	got := idx.SearchImage(mmdb.NewFilledImage(8, 8, red), 1)
	if len(got) != 1 || got[0].ID != a {
		t.Fatalf("bic search %v", got)
	}

	// Sync and CheckStore are no-ops in memory mode.
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	check, err := db.CheckStore()
	if err != nil || !check.Ok() {
		t.Fatalf("memory check: %+v %v", check, err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	// Delete through the facade.
	if err := db.DeleteCtx(ctx, a); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(a); err == nil {
		t.Fatal("deleted object still present")
	}
	// EditedOf on a leaf binary is empty.
	if kids := db.EditedOf(2); len(kids) != 0 {
		t.Fatalf("kids %v", kids)
	}
}

// TestAutoAugment pins the paper's database augmentation at insert time:
// with WithAutoAugment every binary insert derives PerBase edited versions
// of the new image, and WithNoAugment opts a single insert out.
func TestAutoAugment(t *testing.T) {
	ctx := context.Background()
	db := openMem(t, mmdb.WithAutoAugment(mmdb.AugmentOptions{PerBase: 3, OpsPerImage: 2, Seed: 4}))
	id, err := db.InsertImageCtx(ctx, "blue", mmdb.NewFilledImage(12, 8, blue))
	if err != nil {
		t.Fatal(err)
	}
	edited := db.EditedIDs()
	if len(edited) != 3 {
		t.Fatalf("auto-augmented insert left %d edited images, want 3", len(edited))
	}
	for _, eid := range edited {
		obj, err := db.Get(eid)
		if err != nil {
			t.Fatal(err)
		}
		if obj.Seq == nil || obj.Seq.BaseID != id {
			t.Fatalf("edited %d does not derive from the inserted image %d: %+v", eid, id, obj)
		}
	}
	if _, err := db.InsertImageCtx(ctx, "red", mmdb.NewFilledImage(12, 8, red), mmdb.WithNoAugment()); err != nil {
		t.Fatal(err)
	}
	if n := len(db.EditedIDs()); n != 3 {
		t.Fatalf("WithNoAugment insert augmented anyway: %d edited images", n)
	}
}

// TestGroupCommitSharesFsyncs drives four concurrent writers through the
// facade, eight inserts each: batches form from whoever waits while the
// flusher syncs, so every acked insert is fsynced yet the log spends fewer
// fsyncs than there were inserts. Wall clock is left out: it depends on
// the device.
func TestGroupCommitSharesFsyncs(t *testing.T) {
	const writers, perWriter = 4, 8
	db, err := mmdb.Open(mmdb.WithPath(filepath.Join(t.TempDir(), "commit.db")))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			img := mmdb.NewFilledImage(8, 8, mmdb.RGB{R: uint8(40 * w), G: 90, B: 200})
			for i := 0; i < perWriter; i++ {
				if _, err := db.InsertImageCtx(context.Background(), fmt.Sprintf("w%d-%d", w, i), img); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st, ok := db.WALStats()
	if !ok {
		t.Fatal("file-backed database reports no WAL")
	}
	if st.Fsyncs >= writers*perWriter {
		t.Errorf("group commit: %d fsyncs for %d inserts, want fewer", st.Fsyncs, writers*perWriter)
	}
}
