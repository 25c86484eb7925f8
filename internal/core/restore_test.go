package core

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/editops"
	"repro/internal/imaging"
	"repro/internal/store/segment"
)

// A reopened database restores the catalog its live self held: binaries and
// scripts written under interleaved and pinned ids — scripts below their
// base, automatic ids past the tail, deletes between — list the same ids,
// the same ObjectsAfter windows and the same Objects answers, entry for
// entry.
func TestRestoreInterleavedHistory(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "seg.db")
	db := segDB(t, path, segment.Options{})
	spare := scrambledCorpus(t, db, 40, 4, 7)
	for i := 0; i < 6; i++ { // automatic ids past the pinned tail, both kinds
		id, err := db.InsertImageCtx(ctx, 0, "auto", imaging.NewFilled(4, 4, imaging.RGB{R: uint8(40 * i)}))
		if err != nil {
			t.Fatal(err)
		}
		seq := &editops.Sequence{BaseID: id, Ops: []editops.Op{editops.Modify{Old: imaging.RGB{}, New: imaging.RGB{B: 255}}}}
		if _, err := db.InsertEditedCtx(ctx, 0, "auto-edit", seq); err != nil {
			t.Fatal(err)
		}
	}
	segMutate(t, db)
	if err := db.DeleteCtx(ctx, spare[0]); err != nil {
		t.Fatal(err)
	}

	type snapshot struct {
		ids     []uint64
		windows [][]*catalog.Object
		objects []*catalog.Object
	}
	take := func(db *DB) snapshot {
		s := snapshot{ids: db.cat.AllIDs()}
		for _, n := range []int{1, 7, 64, 1 << 20} {
			for after := uint64(0); ; {
				w := db.cat.ObjectsAfter(nil, after, n)
				s.windows = append(s.windows, w)
				if len(w) < n {
					break
				}
				after = w[len(w)-1].ID
			}
		}
		probe := append([]uint64{spare[0], 0}, s.ids...)
		probe = append(probe, s.ids[len(s.ids)/2], s.ids[0], s.ids[0], 1<<40)
		s.objects = db.cat.Objects(probe)
		return s
	}
	live := take(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := segDB(t, path, segment.Options{})
	defer reopened.Close()
	got := take(reopened)
	if !reflect.DeepEqual(got.ids, live.ids) {
		t.Fatalf("reopened ids %v\nlive ids %v", got.ids, live.ids)
	}
	if len(got.windows) != len(live.windows) {
		t.Fatalf("reopened catalog lists %d windows, live %d", len(got.windows), len(live.windows))
	}
	for i := range live.windows {
		if !reflect.DeepEqual(got.windows[i], live.windows[i]) {
			t.Fatalf("window %d differs after reopening", i)
		}
	}
	if !reflect.DeepEqual(got.objects, live.objects) {
		t.Fatal("Objects answers differ after reopening")
	}
	if len(live.objects) != len(live.ids)+3 {
		t.Fatalf("Objects kept %d of %d present probes", len(live.objects), len(live.ids)+3)
	}
}
