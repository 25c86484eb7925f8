package catalog

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/editops"
	"repro/internal/histogram"
)

func histFor(w, h int) *histogram.Histogram {
	h2 := histogram.New(8)
	h2.Counts[0] = w * h
	h2.Total = w * h
	return h2
}

func TestAddBinaryAndGet(t *testing.T) {
	c := New()
	id, err := c.AddBinary("flag-1", 4, 4, histFor(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("first id = %d", id)
	}
	obj, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Kind != KindBinary || obj.Name != "flag-1" || obj.W != 4 {
		t.Fatalf("object %+v", obj)
	}
	if _, err := c.Get(99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing id error = %v", err)
	}
}

func TestAddBinaryValidation(t *testing.T) {
	c := New()
	if _, err := c.AddBinary("x", 4, 4, nil); err == nil {
		t.Fatal("nil histogram accepted")
	}
	if _, err := c.AddBinary("x", 0, 4, histFor(0, 4)); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := c.AddBinary("x", 4, 4, histFor(2, 2)); err == nil {
		t.Fatal("mismatched total accepted")
	}
}

func TestAddEditedLinksToBase(t *testing.T) {
	c := New()
	base, _ := c.AddBinary("b", 4, 4, histFor(4, 4))
	seq := &editops.Sequence{BaseID: base, Ops: []editops.Op{editops.Modify{}}}
	id, err := c.AddEdited("e", seq, true)
	if err != nil {
		t.Fatal(err)
	}
	kids := c.EditedOf(base)
	if len(kids) != 1 || kids[0] != id {
		t.Fatalf("EditedOf = %v", kids)
	}
	got, err := c.BaseOf(id)
	if err != nil || got != base {
		t.Fatalf("BaseOf = %d, %v", got, err)
	}
	if _, err := c.BaseOf(base); err == nil {
		t.Fatal("BaseOf on binary succeeded")
	}
}

func TestAddEditedValidation(t *testing.T) {
	c := New()
	base, _ := c.AddBinary("b", 4, 4, histFor(4, 4))
	if _, err := c.AddEdited("e", nil, true); err == nil {
		t.Fatal("nil sequence accepted")
	}
	if _, err := c.AddEdited("e", &editops.Sequence{BaseID: 999}, true); err == nil {
		t.Fatal("dangling base accepted")
	}
	// Edited image cannot be the base of another edited image.
	seq := &editops.Sequence{BaseID: base}
	eid, _ := c.AddEdited("e", seq, true)
	if _, err := c.AddEdited("e2", &editops.Sequence{BaseID: eid}, true); err == nil {
		t.Fatal("edited base accepted")
	}
	// Merge targets must exist and be binary.
	bad := &editops.Sequence{BaseID: base, Ops: []editops.Op{editops.Merge{Target: 777}}}
	if _, err := c.AddEdited("e3", bad, false); err == nil {
		t.Fatal("dangling merge target accepted")
	}
	badKind := &editops.Sequence{BaseID: base, Ops: []editops.Op{editops.Merge{Target: eid}}}
	if _, err := c.AddEdited("e4", badKind, false); err == nil {
		t.Fatal("edited merge target accepted")
	}
}

func TestKindAccessors(t *testing.T) {
	c := New()
	b, _ := c.AddBinary("b", 2, 2, histFor(2, 2))
	e, _ := c.AddEdited("e", &editops.Sequence{BaseID: b}, true)
	if _, err := c.Binary(b); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Binary(e); err == nil {
		t.Fatal("Binary returned edited object")
	}
	if _, err := c.Edited(e); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Edited(b); err == nil {
		t.Fatal("Edited returned binary object")
	}
}

func TestOrderingAndCounts(t *testing.T) {
	c := New()
	var bids []uint64
	for i := 0; i < 3; i++ {
		id, _ := c.AddBinary("b", 2, 2, histFor(2, 2))
		bids = append(bids, id)
	}
	e1, _ := c.AddEdited("e1", &editops.Sequence{BaseID: bids[1]}, true)
	e2, _ := c.AddEdited("e2", &editops.Sequence{BaseID: bids[1]}, false)
	got := c.Binaries()
	for i, id := range bids {
		if got[i] != id {
			t.Fatalf("Binaries order %v", got)
		}
	}
	eids := c.EditedIDs()
	if len(eids) != 2 || eids[0] != e1 || eids[1] != e2 {
		t.Fatalf("EditedIDs %v", eids)
	}
	nb, ne := c.Len()
	if nb != 3 || ne != 2 {
		t.Fatalf("Len = %d,%d", nb, ne)
	}
	all := c.AllIDs()
	if len(all) != 5 {
		t.Fatalf("AllIDs %v", all)
	}
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Fatal("AllIDs not sorted")
		}
	}
}

func TestStats(t *testing.T) {
	c := New()
	b, _ := c.AddBinary("b", 2, 2, histFor(2, 2))
	c.AddEdited("e1", &editops.Sequence{BaseID: b, Ops: []editops.Op{editops.Modify{}, editops.Modify{}}}, true)
	c.AddEdited("e2", &editops.Sequence{BaseID: b, Ops: []editops.Op{editops.Modify{}, editops.Modify{}, editops.Modify{}, editops.Modify{}}}, false)
	s := c.Stats()
	if s.Images != 3 || s.Binaries != 1 || s.Edited != 2 {
		t.Fatalf("stats %+v", s)
	}
	if s.WideningOnly != 1 || s.NonWidening != 1 {
		t.Fatalf("widening split %+v", s)
	}
	if s.AvgOpsPerEdited != 3 {
		t.Fatalf("avg ops %v", s.AvgOpsPerEdited)
	}
}

func TestRestoreObject(t *testing.T) {
	c := New()
	hist := histFor(2, 2)
	// An edited image may come before its base, and its id may be lower.
	seq := &editops.Sequence{BaseID: 10}
	if err := c.Restore([]*Object{{ID: 8, Kind: KindEdited, Seq: seq, Widening: true}, {ID: 10, Kind: KindBinary, W: 2, H: 2, Hist: hist}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Restore([]*Object{{ID: 12, Kind: KindEdited, Seq: seq, Widening: true}}); err != nil {
		t.Fatal(err)
	}
	// Next allocation continues past restored ids.
	id, _ := c.AddBinary("new", 2, 2, histFor(2, 2))
	if id != 13 {
		t.Fatalf("next id = %d, want 13", id)
	}
	before := c.AllIDs()
	for _, bad := range []struct {
		what string
		objs []*Object
	}{
		{"duplicate of a present id", []*Object{{ID: 10, Kind: KindBinary, W: 2, H: 2, Hist: hist}}},
		{"duplicate within the batch", []*Object{{ID: 30, Kind: KindBinary, W: 2, H: 2, Hist: hist}, {ID: 30, Kind: KindBinary, W: 2, H: 2, Hist: hist}}},
		{"orphan", []*Object{{ID: 31, Kind: KindBinary, W: 2, H: 2, Hist: hist}, {ID: 20, Kind: KindEdited, Seq: &editops.Sequence{BaseID: 19}}}},
		{"edited base", []*Object{{ID: 21, Kind: KindEdited, Seq: &editops.Sequence{BaseID: 12}}}},
		{"incomplete binary", []*Object{{ID: 21, Kind: KindBinary}}},
		{"missing sequence", []*Object{{ID: 21, Kind: KindEdited}}},
		{"unknown kind", []*Object{{ID: 22, Kind: Kind(9)}}},
		{"nil", []*Object{nil}},
		{"id 0", []*Object{{Kind: KindBinary, W: 2, H: 2, Hist: hist}}},
	} {
		if err := c.Restore(bad.objs); err == nil {
			t.Fatalf("%s: restore accepted", bad.what)
		}
		if got := c.AllIDs(); !slices.Equal(got, before) {
			t.Fatalf("%s: a refused restore left ids %v, want %v", bad.what, got, before)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindBinary.String() != "binary" || KindEdited.String() != "edited" {
		t.Fatal("kind names wrong")
	}
	if Kind(7).String() != "kind(7)" {
		t.Fatal("unknown kind name wrong")
	}
}

func TestDeleteEdited(t *testing.T) {
	c := New()
	b, _ := c.AddBinary("b", 2, 2, histFor(2, 2))
	tgt, _ := c.AddBinary("t", 2, 2, histFor(2, 2))
	seq := &editops.Sequence{BaseID: b, Ops: []editops.Op{editops.Merge{Target: tgt}}}
	e, _ := c.AddEdited("e", seq, false)

	// Binary deletes blocked while referenced.
	if err := c.Delete(b); !errors.Is(err, ErrInUse) {
		t.Fatalf("delete base: %v", err)
	}
	if err := c.Delete(tgt); !errors.Is(err, ErrInUse) {
		t.Fatalf("delete target: %v", err)
	}
	if err := c.Delete(e); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(e); !errors.Is(err, ErrNotFound) {
		t.Fatal("edited object survived delete")
	}
	if len(c.EditedOf(b)) != 0 {
		t.Fatal("children list not updated")
	}
	// Refcount released: both binaries now deletable.
	if err := c.Delete(b); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(tgt); err != nil {
		t.Fatal(err)
	}
	nb, ne := c.Len()
	if nb != 0 || ne != 0 {
		t.Fatalf("len after deletes: %d %d", nb, ne)
	}
	if err := c.Delete(99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
}

func TestDeleteSharedMergeTargetRefcount(t *testing.T) {
	c := New()
	b, _ := c.AddBinary("b", 2, 2, histFor(2, 2))
	tgt, _ := c.AddBinary("t", 2, 2, histFor(2, 2))
	mk := func() uint64 {
		id, err := c.AddEdited("e", &editops.Sequence{BaseID: b, Ops: []editops.Op{editops.Merge{Target: tgt}}}, false)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	e1, e2 := mk(), mk()
	c.Delete(e1)
	if err := c.Delete(tgt); !errors.Is(err, ErrInUse) {
		t.Fatal("target deletable while still referenced by e2")
	}
	c.Delete(e2)
	if err := c.Delete(tgt); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreObjectRebuildsTargetRefs(t *testing.T) {
	c := New()
	hist := histFor(2, 2)
	seq := &editops.Sequence{BaseID: 1, Ops: []editops.Op{editops.Merge{Target: 2}}}
	if err := c.Restore([]*Object{
		{ID: 3, Kind: KindEdited, Seq: seq},
		{ID: 1, Kind: KindBinary, W: 2, H: 2, Hist: hist},
		{ID: 2, Kind: KindBinary, W: 2, H: 2, Hist: histFor(2, 2)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(2); !errors.Is(err, ErrInUse) {
		t.Fatalf("restored refcount missing: %v", err)
	}
}

func TestAddBinaryWithID(t *testing.T) {
	c := New()
	id, err := c.AddBinaryWithID(7, "seven", 4, 4, histFor(4, 4))
	if err != nil || id != 7 {
		t.Fatalf("AddBinaryWithID(7) = %d, %v", id, err)
	}
	// The allocator continues past the claimed id.
	next, err := c.AddBinary("eight", 4, 4, histFor(4, 4))
	if err != nil || next != 8 {
		t.Fatalf("next auto id = %d, %v", next, err)
	}
	// Claiming a taken id is a distinct, matchable error.
	if _, err := c.AddBinaryWithID(7, "again", 4, 4, histFor(4, 4)); !errors.Is(err, ErrIDTaken) {
		t.Fatalf("reclaim error = %v, want ErrIDTaken", err)
	}
	// Claiming below the watermark works when the id is free.
	id, err = c.AddBinaryWithID(3, "three", 4, 4, histFor(4, 4))
	if err != nil || id != 3 {
		t.Fatalf("AddBinaryWithID(3) = %d, %v", id, err)
	}
	if next, _ := c.AddBinary("nine", 4, 4, histFor(4, 4)); next != 9 {
		t.Fatalf("low claim must not rewind the allocator: got %d", next)
	}
}

func TestAddEditedWithID(t *testing.T) {
	c := New()
	base, err := c.AddBinary("base", 4, 4, histFor(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	seq := &editops.Sequence{BaseID: base, Ops: []editops.Op{editops.Combine{Weights: [9]float64{1, 0, 0, 0, 0, 0, 0, 0, 0}}}}
	id, err := c.AddEditedWithID(5, "edit", seq, true)
	if err != nil || id != 5 {
		t.Fatalf("AddEditedWithID(5) = %d, %v", id, err)
	}
	if _, err := c.AddEditedWithID(5, "dup", seq.Clone(), true); !errors.Is(err, ErrIDTaken) {
		t.Fatalf("reclaim error = %v, want ErrIDTaken", err)
	}
	// Id 0 delegates to the allocator, same as AddEdited.
	id, err = c.AddEditedWithID(0, "auto", seq.Clone(), true)
	if err != nil || id != 6 {
		t.Fatalf("AddEditedWithID(0) = %d, %v", id, err)
	}
}

// Pinned ids below the tail are inserted in place: the id column stays
// ascending whatever the arrival order, deletes keep it so, and ObjectsAfter
// lists binary and edited images as one ascending candidate stream.
func TestIDListsStayAscending(t *testing.T) {
	c := New()
	widen := func(base uint64) *editops.Sequence {
		return &editops.Sequence{BaseID: base, Ops: []editops.Op{editops.Combine{Weights: [9]float64{1, 0, 0, 0, 0, 0, 0, 0, 0}}}}
	}
	for _, id := range []uint64{20, 5, 12} {
		if _, err := c.AddBinaryWithID(id, "b", 4, 4, histFor(4, 4)); err != nil {
			t.Fatal(err)
		}
	}
	// Edited ids on both sides of their base's.
	for _, e := range []struct{ id, base uint64 }{{30, 20}, {3, 20}, {9, 12}, {25, 5}} {
		if _, err := c.AddEditedWithID(e.id, "e", widen(e.base), true); err != nil {
			t.Fatal(err)
		}
	}
	equal := func(got []uint64, want ...uint64) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if got := c.Binaries(); !equal(got, 5, 12, 20) {
		t.Fatalf("Binaries() = %v", got)
	}
	if got := c.EditedIDs(); !equal(got, 3, 9, 25, 30) {
		t.Fatalf("EditedIDs() = %v", got)
	}
	after := func(id uint64, n int) []uint64 {
		var ids []uint64
		for _, obj := range c.ObjectsAfter(nil, id, n) {
			ids = append(ids, obj.ID)
		}
		return ids
	}
	if got := after(0, 100); !equal(got, 3, 5, 9, 12, 20, 25, 30) {
		t.Fatalf("ObjectsAfter(0, 100) = %v", got)
	}
	if got := after(5, 3); !equal(got, 9, 12, 20) {
		t.Fatalf("ObjectsAfter(5, 3) = %v", got)
	}
	if got := after(30, 3); len(got) != 0 {
		t.Fatalf("ObjectsAfter(30, 3) = %v", got)
	}
	if got := after(^uint64(0), 3); len(got) != 0 {
		t.Fatalf("ObjectsAfter(max, 3) = %v", got)
	}
	if err := c.Delete(9); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(12); err != nil {
		t.Fatal(err)
	}
	if got := after(4, 100); !equal(got, 5, 20, 25, 30) {
		t.Fatalf("after deletes ObjectsAfter(4, 100) = %v", got)
	}
}

// Objects answers in the caller's order and leaves out ids that are gone —
// the batched read a query answer is hydrated from.
func TestObjectsSkipsMissing(t *testing.T) {
	c := New()
	for _, id := range []uint64{5, 12, 20} {
		if _, err := c.AddBinaryWithID(id, "b", 4, 4, histFor(4, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete(12); err != nil {
		t.Fatal(err)
	}
	got := c.Objects([]uint64{20, 12, 7, 5, 20})
	var ids []uint64
	for _, obj := range got {
		ids = append(ids, obj.ID)
	}
	if want := []uint64{20, 5, 20}; !slices.Equal(ids, want) {
		t.Fatalf("Objects = %v, want %v", ids, want)
	}
	if got := c.Objects(nil); len(got) != 0 {
		t.Fatalf("Objects(nil) = %v", got)
	}
}

// BenchmarkCatalogRestore restores 20 000 entries whose kinds alternate by
// id — each binary image followed by an edited one over it — handed over
// binaries first, as a reopened database once restored them kind by kind. A
// restore that placed each edited entry among the binaries one at a time
// would shift half the array per entry.
func BenchmarkCatalogRestore(b *testing.B) {
	hist := histFor(2, 2)
	var bins, eds []*Object
	for id := uint64(1); id <= 20000; id += 2 {
		bins = append(bins, &Object{ID: id, Kind: KindBinary, W: 2, H: 2, Hist: hist})
		eds = append(eds, &Object{ID: id + 1, Kind: KindEdited, Seq: &editops.Sequence{BaseID: id}})
	}
	objs := append(bins, eds...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := New()
		if err := c.Restore(slices.Clone(objs)); err != nil {
			b.Fatal(err)
		}
		if nb, ne := c.Len(); nb != 10000 || ne != 10000 {
			b.Fatalf("restored %d binaries, %d edited", nb, ne)
		}
	}
}
