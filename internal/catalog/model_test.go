package catalog

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/editops"
)

// catalogModel is the catalog's specification as the plainest structure
// that can hold it: a map of the entries each method must report, the id
// allocator, and the base→edited lists in insertion order.
type catalogModel struct {
	objs     map[uint64]*Object
	children map[uint64][]uint64
	nextID   uint64
}

func (m *catalogModel) ids() []uint64 {
	ids := make([]uint64, 0, len(m.objs))
	for id := range m.objs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (m *catalogModel) isBinary(id uint64) bool {
	obj, ok := m.objs[id]
	return ok && obj.Kind == KindBinary
}

// inUse reports whether an edited image names id as its base or a Merge
// target.
func (m *catalogModel) inUse(id uint64) bool {
	for _, obj := range m.objs {
		if obj.Kind == KindEdited && (obj.Seq.BaseID == id || slices.Contains(obj.Seq.MergeTargets(), id)) {
			return true
		}
	}
	return false
}

// claim is the allocator's answer to an insert id; ok is false for a taken
// pinned id.
func (m *catalogModel) claim(id uint64) (uint64, bool) {
	if id == 0 {
		id = m.nextID
	} else if _, taken := m.objs[id]; taken {
		return 0, false
	}
	m.nextID = max(m.nextID, id+1)
	return id, true
}

func (m *catalogModel) put(obj *Object) {
	m.objs[obj.ID] = obj
	if obj.Kind == KindEdited {
		m.children[obj.Seq.BaseID] = append(m.children[obj.Seq.BaseID], obj.ID)
	}
}

// opReader deals the fuzz input out a byte at a time, zeros once it runs
// dry.
type opReader []byte

func (r *opReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// FuzzCatalogOps drives a catalog and catalogModel through the same random
// history — automatic and pinned inserts of both kinds, batch restores,
// sequence updates and deletes, refused ones included — and after every
// step holds every read of the catalog to the model's.
func FuzzCatalogOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 3, 0, 2, 4, 0})
	f.Add([]byte{0, 1, 9, 0, 1, 40, 1, 0, 0, 3, 1, 1, 2, 1, 2, 2, 5, 4, 1, 3, 3, 2, 4, 0})
	f.Add([]byte{2, 2, 0, 20, 1, 7, 1, 0, 3, 1, 1, 9, 1, 0, 2, 4, 5, 6, 3, 0, 1, 2, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 1, 3, 1, 1, 5, 4, 0, 4, 0, 4, 1, 5, 2, 0, 3, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := opReader(data)
		c := New()
		m := &catalogModel{objs: map[uint64]*Object{}, children: map[uint64][]uint64{}, nextID: 1}
		for step := 0; step < 48 && len(r) > 0; step++ {
			applyOp(t, c, m, &r)
			checkCatalog(t, c, m)
		}
	})
}

// pickID names an id for a lookup, a base or a target: most often a present
// one, sometimes one past every id ever allocated, sometimes a small id that
// may be present, deleted or never used (0 included).
func pickID(m *catalogModel, b byte) uint64 {
	ids := m.ids()
	switch k := int(b) % (len(ids) + 2); {
	case k < len(ids):
		return ids[k]
	case k == len(ids):
		return m.nextID + uint64(b%3)
	default:
		return uint64(b % 16)
	}
}

// pinID names an insert id: 0 (allocate), a small id below the tail, or
// one at or above it.
func pinID(m *catalogModel, b byte) uint64 {
	switch b % 3 {
	case 0:
		return 0
	case 1:
		return 1 + uint64(b>>2)%24
	default:
		return m.nextID + uint64(b>>2)%4
	}
}

// seqFor is a one-op sequence over base, with a Merge onto target unless
// target is 0.
func seqFor(base, target uint64) *editops.Sequence {
	if target == 0 {
		return &editops.Sequence{BaseID: base, Ops: []editops.Op{editops.Modify{}}}
	}
	return &editops.Sequence{BaseID: base, Ops: []editops.Op{editops.Merge{Target: target}}}
}

func applyOp(t *testing.T, c *Catalog, m *catalogModel, r *opReader) {
	t.Helper()
	switch op, b := r.next()%6, r.next(); op {
	case 0: // binary insert
		hist := histFor(2, 2)
		pin := pinID(m, b)
		got, err := c.AddBinaryWithID(pin, "b", 2, 2, hist)
		id, ok := m.claim(pin)
		if !ok {
			if !errors.Is(err, ErrIDTaken) {
				t.Fatalf("AddBinaryWithID(%d) of a taken id: %v", pin, err)
			}
			return
		}
		if err != nil || got != id {
			t.Fatalf("AddBinaryWithID(%d) = %d, %v; want %d", pin, got, err, id)
		}
		m.put(&Object{ID: id, Kind: KindBinary, Name: "b", W: 2, H: 2, Hist: hist})
	case 1: // edited insert
		base, target := pickID(m, r.next()), uint64(0)
		if tb := r.next(); tb%3 != 0 {
			target = pickID(m, tb)
		}
		seq := seqFor(base, target)
		pin, widening := pinID(m, b), b&8 != 0
		got, err := c.AddEditedWithID(pin, "e", seq, widening)
		switch {
		case base == 0:
			if err == nil {
				t.Fatal("an edited image with base 0 was accepted")
			}
			return
		case !m.isBinary(base) || target != 0 && !m.isBinary(target):
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("AddEditedWithID over base %d, target %d: %v, want ErrNotFound", base, target, err)
			}
			return
		}
		id, ok := m.claim(pin)
		if !ok {
			if !errors.Is(err, ErrIDTaken) {
				t.Fatalf("AddEditedWithID(%d) of a taken id: %v", pin, err)
			}
			return
		}
		if err != nil || got != id {
			t.Fatalf("AddEditedWithID(%d) = %d, %v; want %d", pin, got, err, id)
		}
		m.put(&Object{ID: id, Kind: KindEdited, Name: "e", Seq: seq, Widening: widening})
	case 2: // restore a batch, refused whole if any object is
		batch := make([]*Object, 1+int(b)%3)
		for i := range batch {
			kb := r.next()
			id := max(1, pinID(m, kb))
			if kb&16 != 0 {
				base := pickID(m, r.next())
				if kb&64 != 0 && i > 0 {
					base = batch[0].ID // a base restored beside it, or an edited image
				}
				batch[i] = &Object{ID: id, Kind: KindEdited, Name: "r", Seq: seqFor(base, 0), Widening: kb&32 != 0}
			} else {
				batch[i] = &Object{ID: id, Kind: KindBinary, Name: "r", W: 2, H: 2, Hist: histFor(2, 2)}
			}
		}
		restorable := func() bool {
			seen := map[uint64]*Object{}
			for _, obj := range batch {
				if _, dup := seen[obj.ID]; dup || m.objs[obj.ID] != nil {
					return false
				}
				seen[obj.ID] = obj
			}
			for _, obj := range batch {
				if obj.Kind != KindEdited || m.isBinary(obj.Seq.BaseID) {
					continue
				}
				if base := seen[obj.Seq.BaseID]; base == nil || base.Kind != KindBinary {
					return false
				}
			}
			return true
		}()
		err := c.Restore(slices.Clone(batch))
		if restorable != (err == nil) {
			t.Fatalf("Restore(%v): %v, want accepted %v", batchIDs(batch), err, restorable)
		}
		if err != nil {
			return
		}
		slices.SortFunc(batch, func(a, b *Object) int { return cmp.Compare(a.ID, b.ID) })
		for _, obj := range batch {
			m.put(obj)
			m.nextID = max(m.nextID, obj.ID+1)
		}
	case 3: // sequence update, re-bases and bad targets refused
		id := pickID(m, b)
		base := pickID(m, r.next())
		if obj := m.objs[id]; obj != nil && obj.Kind == KindEdited && r.next()%4 != 0 {
			base = obj.Seq.BaseID
		}
		target := uint64(0)
		if tb := r.next(); tb%2 != 0 {
			target = pickID(m, tb)
		}
		seq := seqFor(base, target)
		err := c.UpdateEdited(id, seq, b&1 != 0)
		obj := m.objs[id]
		switch {
		case base == 0:
			if err == nil {
				t.Fatal("an update to base 0 was accepted")
			}
		case obj == nil || obj.Kind != KindEdited:
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("UpdateEdited(%d) of a non-edited id: %v", id, err)
			}
		case base != obj.Seq.BaseID:
			if err == nil || errors.Is(err, ErrNotFound) {
				t.Fatalf("UpdateEdited(%d) re-basing %d to %d: %v", id, obj.Seq.BaseID, base, err)
			}
		case target != 0 && !m.isBinary(target):
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("UpdateEdited(%d) onto target %d: %v, want ErrNotFound", id, target, err)
			}
		default:
			if err != nil {
				t.Fatalf("UpdateEdited(%d): %v", id, err)
			}
			updated := *obj
			updated.Seq, updated.Widening = seq, b&1 != 0
			m.objs[id] = &updated
		}
	default: // delete
		id := pickID(m, b)
		err := c.Delete(id)
		obj := m.objs[id]
		switch {
		case obj == nil:
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("Delete(%d) of a missing id: %v", id, err)
			}
		case obj.Kind == KindBinary && m.inUse(id):
			if !errors.Is(err, ErrInUse) {
				t.Fatalf("Delete(%d) of a referenced image: %v, want ErrInUse", id, err)
			}
		default:
			if err != nil {
				t.Fatalf("Delete(%d): %v", id, err)
			}
			delete(m.objs, id)
			delete(m.children, id)
			if obj.Kind == KindEdited {
				kids := m.children[obj.Seq.BaseID]
				m.children[obj.Seq.BaseID] = slices.Delete(kids, slices.Index(kids, id), slices.Index(kids, id)+1)
			}
		}
	}
}

func batchIDs(objs []*Object) []uint64 {
	ids := make([]uint64, len(objs))
	for i, obj := range objs {
		ids[i] = obj.ID
	}
	return ids
}

func sameObject(got, want *Object) bool {
	return got != nil && want != nil && got.ID == want.ID && got.Kind == want.Kind && got.Name == want.Name &&
		got.W == want.W && got.H == want.H && got.Hist == want.Hist && got.Seq == want.Seq && got.Widening == want.Widening
}

// checkCatalog holds every read of c to the model: point lookups, the
// kind listings and counts, ObjectsAfter at every cursor and window, and
// Objects over ascending, duplicated, descending and shuffled id lists with
// missing ids among them.
func checkCatalog(t *testing.T, c *Catalog, m *catalogModel) {
	t.Helper()
	ids := m.ids()
	var bins, eds []uint64
	var want Stats
	ops := 0
	for _, id := range ids {
		obj := m.objs[id]
		if obj.Kind == KindBinary {
			bins = append(bins, id)
			continue
		}
		eds = append(eds, id)
		ops += len(obj.Seq.Ops)
		if obj.Widening {
			want.WideningOnly++
		} else {
			want.NonWidening++
		}
	}
	want.Images, want.Binaries, want.Edited = len(ids), len(bins), len(eds)
	if len(eds) > 0 {
		want.AvgOpsPerEdited = float64(ops) / float64(len(eds))
	}
	if got := c.AllIDs(); !slices.Equal(got, ids) {
		t.Fatalf("AllIDs = %v, want %v", got, ids)
	}
	if got := c.Binaries(); !slices.Equal(got, bins) {
		t.Fatalf("Binaries = %v, want %v", got, bins)
	}
	if got := c.EditedIDs(); !slices.Equal(got, eds) {
		t.Fatalf("EditedIDs = %v, want %v", got, eds)
	}
	if nb, ne := c.Len(); nb != len(bins) || ne != len(eds) {
		t.Fatalf("Len = %d, %d; want %d, %d", nb, ne, len(bins), len(eds))
	}
	if got := c.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}

	// Every present id, its neighbours, 0, the allocator and the top id.
	probes := []uint64{0, m.nextID, math.MaxUint64}
	for _, id := range ids {
		probes = append(probes, id-1, id, id+1)
	}
	slices.Sort(probes)
	probes = slices.Compact(probes)
	for _, id := range probes {
		obj := m.objs[id]
		got, err := c.Get(id)
		if obj == nil {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get(%d) of a missing id = %+v, %v", id, got, err)
			}
		} else if err != nil || !sameObject(got, obj) {
			t.Fatalf("Get(%d) = %+v, %v; want %+v", id, got, err, obj)
		}
		_, errB := c.Binary(id)
		_, errE := c.Edited(id)
		if (errB == nil) != (obj != nil && obj.Kind == KindBinary) || (errE == nil) != (obj != nil && obj.Kind == KindEdited) {
			t.Fatalf("Binary(%d), Edited(%d) = %v, %v for %+v", id, id, errB, errE, obj)
		}
		if obj != nil && obj.Kind == KindBinary {
			if got := c.EditedOf(id); !slices.Equal(got, m.children[id]) {
				t.Fatalf("EditedOf(%d) = %v, want %v", id, got, m.children[id])
			}
		}
	}

	var buf []*Object
	for _, after := range probes {
		k := 0
		for k < len(ids) && ids[k] <= after {
			k++
		}
		rest := ids[k:]
		for n := 0; n <= len(rest)+1; n++ {
			buf = c.ObjectsAfter(buf, after, n)
			if len(buf) != min(n, len(rest)) {
				t.Fatalf("ObjectsAfter(%d, %d) holds %d objects, want %d", after, n, len(buf), min(n, len(rest)))
			}
			for i, obj := range buf {
				if !sameObject(obj, m.objs[rest[i]]) {
					t.Fatalf("ObjectsAfter(%d, %d)[%d] = %+v, want id %d", after, n, i, obj, rest[i])
				}
			}
		}
	}

	twice := make([]uint64, 0, 2*len(probes))
	for _, id := range probes {
		twice = append(twice, id, id)
	}
	desc := slices.Clone(probes)
	slices.Reverse(desc)
	shuffled := slices.Clone(probes)
	for i := 0; i+1 < len(shuffled); i += 2 {
		shuffled[i], shuffled[i+1] = shuffled[i+1], shuffled[i]
	}
	shuffled = append(shuffled, desc...)
	for _, list := range [][]uint64{nil, probes, twice, desc, shuffled} {
		got := c.Objects(list)
		var wantIDs []uint64
		for _, id := range list {
			if m.objs[id] != nil {
				wantIDs = append(wantIDs, id)
			}
		}
		if len(got) != len(wantIDs) {
			t.Fatalf("Objects(%v) holds %d objects, want %v", list, len(got), wantIDs)
		}
		for i, obj := range got {
			if !sameObject(obj, m.objs[wantIDs[i]]) {
				t.Fatalf("Objects(%v)[%d] = %+v, want id %d", list, i, obj, wantIDs[i])
			}
		}
	}
}
