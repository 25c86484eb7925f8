package core

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/editops"
	"repro/internal/imaging"
)

func TestDeleteEditedImage(t *testing.T) {
	ctx := context.Background()
	db := memDB(t)
	base, _ := db.InsertImageCtx(ctx, 0, "b", imaging.NewFilled(8, 8, dataset.Red))
	seq := &editops.Sequence{BaseID: base, Ops: []editops.Op{
		editops.Modify{Old: dataset.Red, New: dataset.Blue},
	}}
	eid, _ := db.InsertEditedCtx(ctx, 0, "e", seq)

	res, _ := db.RangeQueryTextCtx(ctx, "at least 50% blue", ModeBWM)
	if len(res.IDs) != 1 || res.IDs[0] != eid {
		t.Fatalf("before delete: %v", res.IDs)
	}
	if err := db.DeleteCtx(ctx, eid); err != nil {
		t.Fatal(err)
	}
	res, _ = db.RangeQueryTextCtx(ctx, "at least 50% blue", ModeBWM)
	if len(res.IDs) != 0 {
		t.Fatalf("after delete: %v", res.IDs)
	}
	if _, err := db.Get(eid); !errors.Is(err, catalog.ErrNotFound) {
		t.Fatalf("get after delete: %v", err)
	}
	// Base is now deletable.
	if err := db.DeleteCtx(ctx, base); err != nil {
		t.Fatal(err)
	}
	st, _ := db.Stats()
	if st.Catalog.Images != 0 || st.BWMClusters != 0 {
		t.Fatalf("stats after full delete: %+v", st)
	}
}

func TestDeleteBinaryBlockedByDependents(t *testing.T) {
	ctx := context.Background()
	db := memDB(t)
	base, _ := db.InsertImageCtx(ctx, 0, "b", imaging.NewFilled(8, 8, dataset.Red))
	other, _ := db.InsertImageCtx(ctx, 0, "o", imaging.NewFilled(8, 8, dataset.Blue))
	eid, _ := db.InsertEditedCtx(ctx, 0, "e", &editops.Sequence{BaseID: base, Ops: editops.PasteOnto(imaging.R(0, 0, 4, 4), other, 0, 0)})

	// Base blocked by its edited child.
	if err := db.DeleteCtx(ctx, base); !errors.Is(err, catalog.ErrInUse) {
		t.Fatalf("delete base with child: %v", err)
	}
	// Merge target blocked by the referencing sequence.
	if err := db.DeleteCtx(ctx, other); !errors.Is(err, catalog.ErrInUse) {
		t.Fatalf("delete merge target: %v", err)
	}
	// After deleting the edited image, both are deletable.
	if err := db.DeleteCtx(ctx, eid); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteCtx(ctx, base); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteCtx(ctx, other); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteUnknownID(t *testing.T) {
	db := memDB(t)
	if err := db.DeleteCtx(context.Background(), 42); !errors.Is(err, catalog.ErrNotFound) {
		t.Fatalf("delete unknown: %v", err)
	}
}

func TestDeleteKeepsModesEquivalent(t *testing.T) {
	ctx := context.Background()
	db := memDB(t)
	populate(t, db, 6, 4, 0.3, 55)
	// Delete a third of the edited images.
	edited := db.EditedIDs()
	for i, id := range edited {
		if i%3 == 0 {
			if err := db.DeleteCtx(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	queries, _ := dataset.RangeWorkload(dataset.WorkloadConfig{Queries: 30, Seed: 8}, db.Quantizer())
	for _, q := range queries {
		a, err := db.RangeQueryCtx(ctx, q, ModeRBM)
		if err != nil {
			t.Fatal(err)
		}
		b, err := db.RangeQueryCtx(ctx, q, ModeBWM)
		if err != nil {
			t.Fatal(err)
		}
		c, err := db.RangeQueryCtx(ctx, q, ModeIndexed)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(a.IDs, b.IDs) || !sameIDs(a.IDs, c.IDs) {
			t.Fatalf("modes disagree after deletes: %v %v %v", a.IDs, b.IDs, c.IDs)
		}
		for _, id := range a.IDs {
			if _, err := db.Get(id); err != nil {
				t.Fatalf("query returned deleted id %d", id)
			}
		}
	}
}

func TestDeletePersistsAcrossReopen(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "del.esidb")
	db, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := db.InsertImageCtx(ctx, 0, "a", imaging.NewFilled(8, 8, dataset.Red))
	bID, _ := db.InsertImageCtx(ctx, 0, "b", imaging.NewFilled(8, 8, dataset.Blue))
	if err := db.DeleteCtx(ctx, a); err != nil {
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
	if _, err := db2.Get(a); !errors.Is(err, catalog.ErrNotFound) {
		t.Fatalf("deleted object survived reopen: %v", err)
	}
	if _, err := db2.Image(bID); err != nil {
		t.Fatalf("surviving raster lost: %v", err)
	}
}

func TestDeleteBinaryRemovesSignature(t *testing.T) {
	ctx := context.Background()
	db := memDB(t)
	red, _ := db.InsertImageCtx(ctx, 0, "r", imaging.NewFilled(8, 8, dataset.Red))
	db.InsertImageCtx(ctx, 0, "b", imaging.NewFilled(8, 8, dataset.Blue))
	// Build the S-tree while the image is still there, so the delete has a
	// point box to remove.
	res, err := db.RangeQueryTextCtx(ctx, "at least 50% red", ModeIndexed)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(res.IDs, []uint64{red}) {
		t.Fatalf("indexed query before delete: %v", res.IDs)
	}
	if err := db.DeleteCtx(ctx, red); err != nil {
		t.Fatal(err)
	}
	// The index must no longer return the deleted image.
	res, err = db.RangeQueryTextCtx(ctx, "at least 50% red", ModeIndexed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 0 {
		t.Fatalf("indexed query returned deleted image: %v", res.IDs)
	}
}

func TestAppendOpsReclassifiesAndRequeries(t *testing.T) {
	ctx := context.Background()
	db := memDB(t)
	base, _ := db.InsertImageCtx(ctx, 0, "b", imaging.NewFilled(8, 8, dataset.Blue))
	other, _ := db.InsertImageCtx(ctx, 0, "o", imaging.NewFilled(8, 8, dataset.Red))
	eid, _ := db.InsertEditedCtx(ctx, 0, "e", &editops.Sequence{BaseID: base, Ops: []editops.Op{
		editops.Modify{Old: dataset.Blue, New: dataset.Green},
	}})
	st, _ := db.Stats()
	if st.BWMClustered != 1 || st.BWMUnclassified != 0 {
		t.Fatalf("initial routing %+v", st)
	}

	// Appending a target merge flips the classification to non-widening.
	if err := db.AppendOpsCtx(ctx, eid, editops.PasteOnto(imaging.R(0, 0, 4, 4), other, 0, 0)); err != nil {
		t.Fatal(err)
	}
	st, _ = db.Stats()
	if st.BWMClustered != 0 || st.BWMUnclassified != 1 {
		t.Fatalf("post-append routing %+v", st)
	}
	obj, _ := db.Get(eid)
	if obj.Widening || len(obj.Seq.Ops) != 3 {
		t.Fatalf("updated object %+v", obj)
	}
	// Queries remain mode-equivalent after the update.
	queries, _ := dataset.RangeWorkload(dataset.WorkloadConfig{Queries: 15, Seed: 14}, db.Quantizer())
	for _, q := range queries {
		a, err := db.RangeQueryCtx(ctx, q, ModeRBM)
		if err != nil {
			t.Fatal(err)
		}
		b, err := db.RangeQueryCtx(ctx, q, ModeBWM)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(a.IDs, b.IDs) {
			t.Fatalf("modes disagree after append")
		}
	}
	// The merge target is now pinned.
	if err := db.DeleteCtx(ctx, other); !errors.Is(err, catalog.ErrInUse) {
		t.Fatalf("merge target deletable after append: %v", err)
	}
	// Instantiation reflects the appended ops.
	img, err := db.Image(eid)
	if err != nil {
		t.Fatal(err)
	}
	if img.CountColor(dataset.Red) == 0 {
		t.Fatal("appended paste not visible in instantiation")
	}
	// Errors: unknown id, binary id.
	if err := db.AppendOpsCtx(ctx, 999, nil); !errors.Is(err, catalog.ErrNotFound) {
		t.Fatalf("append to missing: %v", err)
	}
	if err := db.AppendOpsCtx(ctx, base, nil); err == nil {
		t.Fatal("append to binary accepted")
	}
}

// TestIndexedFreshAfterAppendOpsAndDelete pins the S-tree leaf as a bounds
// store that never goes stale: once built, every AppendOps replaces the
// image's box and every Delete removes it, so the indexed answer equals a
// fresh RBM answer without any rebuild in between.
func TestIndexedFreshAfterAppendOpsAndDelete(t *testing.T) {
	ctx := context.Background()
	db := memDB(t)
	base, _ := db.InsertImageCtx(ctx, 0, "b", imaging.NewFilled(8, 8, dataset.Blue))
	eid, _ := db.InsertEditedCtx(ctx, 0, "e", &editops.Sequence{BaseID: base, Ops: []editops.Op{
		editops.Modify{Old: dataset.Blue, New: dataset.Green},
	}})
	gone, _ := db.InsertEditedCtx(ctx, 0, "gone", &editops.Sequence{BaseID: base, Ops: []editops.Op{
		editops.Modify{Old: dataset.Blue, New: dataset.Red},
	}})
	queries, _ := dataset.RangeWorkload(dataset.WorkloadConfig{Queries: 20, Seed: 15}, db.Quantizer())
	agree := func(when string) {
		t.Helper()
		requireIndexedEqualsRBM(t, when, db, db, queries)
	}
	agree("after build")
	rebuilds := mIndexRebuilds.Value()
	if err := db.AppendOpsCtx(ctx, eid, []editops.Op{editops.Modify{Old: dataset.Green, New: dataset.Red}}); err != nil {
		t.Fatal(err)
	}
	agree("after append")
	if err := db.DeleteCtx(ctx, gone); err != nil {
		t.Fatal(err)
	}
	agree("after delete")
	if got := mIndexRebuilds.Value() - rebuilds; got != 0 {
		t.Fatalf("index rebuilt %d times; the answers above must come from incremental maintenance", got)
	}
}
