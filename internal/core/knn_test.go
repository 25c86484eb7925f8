package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/imaging"
	"repro/internal/query"
)

// bruteForceKNN computes the exact k nearest objects by instantiating
// everything.
func bruteForceKNN(t *testing.T, db *DB, q query.KNN) []Match {
	t.Helper()
	var all []Match
	score := func(id uint64) {
		img, err := db.Image(id)
		if err != nil {
			t.Fatal(err)
		}
		if img.Size() == 0 {
			return
		}
		h := histogram.Extract(img, db.Quantizer())
		all = append(all, Match{ID: id, Dist: q.Metric.Distance(q.Target, h)})
	}
	for _, id := range db.Binaries() {
		score(id)
	}
	for _, id := range db.EditedIDs() {
		score(id)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > q.K {
		all = all[:q.K]
	}
	return all
}

func TestKNNMatchesBruteForce(t *testing.T) {
	db := memDB(t)
	populate(t, db, 6, 4, 0.3, 21)
	probe := dataset.Flags(1, 32, 24, 99)[0].Img
	target := histogram.Extract(probe, db.Quantizer())

	for _, metric := range []query.Metric{query.MetricL1, query.MetricL2, query.MetricIntersection} {
		for _, k := range []int{1, 3, 7} {
			q := query.KNN{Target: target, K: k, Metric: metric}
			got, st, err := db.KNN(q)
			if err != nil {
				t.Fatalf("%s k=%d: %v", metric, k, err)
			}
			want := bruteForceKNN(t, db, q)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: %d results, want %d", metric, k, len(got), len(want))
			}
			// Distances must match exactly (ids can differ on ties).
			for i := range got {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					t.Fatalf("%s k=%d: rank %d dist %v, want %v", metric, k, i, got[i].Dist, want[i].Dist)
				}
			}
			// Results sorted ascending.
			for i := 1; i < len(got); i++ {
				if got[i].Dist < got[i-1].Dist {
					t.Fatalf("%s k=%d: unsorted distances", metric, k)
				}
			}
			if st.BinariesScored != 6 {
				t.Fatalf("scored %d binaries", st.BinariesScored)
			}
		}
	}
}

func TestKNNPrunesSomething(t *testing.T) {
	db := memDB(t)
	// Insert a base identical to the probe so exact matches fill the top-k
	// quickly and distant edits become prunable.
	probe := imaging.NewFilled(16, 16, dataset.Blue)
	db.InsertImage("blue", probe)
	populate(t, db, 8, 5, 0.0, 33)
	target := histogram.Extract(probe, db.Quantizer())
	_, st, err := db.KNN(query.KNN{Target: target, K: 1, Metric: query.MetricL1})
	if err != nil {
		t.Fatal(err)
	}
	if st.EditedPruned == 0 {
		t.Fatalf("no edited images pruned: %+v", st)
	}
	if st.EditedPruned+st.EditedInstantiated != len(db.EditedIDs()) {
		t.Fatalf("pruned %d + instantiated %d != %d edited", st.EditedPruned, st.EditedInstantiated, len(db.EditedIDs()))
	}
}

// bruteForceBinaryKNN ranks only the binary images by exact distance.
func bruteForceBinaryKNN(t *testing.T, db *DB, q query.KNN) []Match {
	t.Helper()
	var all []Match
	for _, id := range db.Binaries() {
		obj, err := db.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, Match{ID: id, Dist: q.Metric.Distance(q.Target, obj.Hist)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > q.K {
		all = all[:q.K]
	}
	return all
}

// TestKNNBinaryMatchesBruteForce: KNNBinary is one scan for every metric,
// and its answer is the brute-force ranking in (dist, id) order exactly.
func TestKNNBinaryMatchesBruteForce(t *testing.T) {
	db := memDB(t)
	populate(t, db, 12, 1, 0, 5)
	// Duplicate rasters tie on distance, so the id tie-break is exercised.
	for _, f := range dataset.Flags(3, 32, 24, 5) {
		if _, err := db.InsertImage(f.Name+"-dup", f.Img); err != nil {
			t.Fatal(err)
		}
	}
	probe := dataset.Flags(1, 32, 24, 123)[0].Img
	target := histogram.Extract(probe, db.Quantizer())

	for _, metric := range []query.Metric{query.MetricL1, query.MetricL2, query.MetricIntersection} {
		for _, k := range []int{1, 5, 100} {
			q := query.KNN{Target: target, K: k, Metric: metric}
			got, err := db.KNNBinary(q)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForceBinaryKNN(t, db, q)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: %d vs %d results", metric, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s k=%d rank %d: %+v vs %+v", metric, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestKNNBinaryDuringDeletes is the deletion-race regression: an image
// deleted between the scan's id-list snapshot and its catalog lookup is
// skipped, not reported as an error. Run with -race.
func TestKNNBinaryDuringDeletes(t *testing.T) {
	db := memDB(t)
	var ids []uint64
	for i := 0; i < 300; i++ {
		id, err := db.InsertImage(fmt.Sprintf("b%d", i), imaging.NewFilled(2, 2, dataset.Red))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	target := histogram.Extract(imaging.NewFilled(2, 2, dataset.Blue), db.Quantizer())
	ctx := context.Background()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, id := range ids {
			if err := db.DeleteCtx(ctx, id); err != nil {
				t.Errorf("delete %d: %v", id, err)
				return
			}
		}
	}()
	for deleting := true; deleting; {
		select {
		case <-done:
			deleting = false // one more scan over the emptied catalog
		default:
		}
		if _, err := db.KNNBinary(query.KNN{Target: target, K: 5, Metric: query.MetricL2}); err != nil {
			t.Errorf("KNNBinary during deletes: %v", err)
			break
		}
	}
	<-done
}

func TestKNNValidation(t *testing.T) {
	db := memDB(t)
	db.InsertImage("x", imaging.NewFilled(4, 4, dataset.Red))
	if _, _, err := db.KNN(query.KNN{Target: nil, K: 1}); err == nil {
		t.Fatal("nil target accepted")
	}
	wrongBins := histogram.New(8)
	if _, _, err := db.KNN(query.KNN{Target: wrongBins, K: 1}); err == nil {
		t.Fatal("bin mismatch accepted")
	}
	if _, err := db.KNNBinary(query.KNN{Target: wrongBins, K: 1}); err == nil {
		t.Fatal("KNNBinary bin mismatch accepted")
	}
}

func TestDistanceLowerBoundIsSound(t *testing.T) {
	// For every edited image: lower bound ≤ true distance.
	db := memDB(t)
	populate(t, db, 6, 5, 0.4, 77)
	probe := dataset.Helmets(1, 32, 24, 1)[0].Img
	target := histogram.Extract(probe, db.Quantizer())
	for _, metric := range []query.Metric{query.MetricL1, query.MetricL2, query.MetricIntersection} {
		for _, eid := range db.EditedIDs() {
			obj, _ := db.Get(eid)
			base, _ := db.Get(obj.Seq.BaseID)
			bounds, err := db.engine.BoundsAll(base.Hist, base.W, base.H, obj.Seq.Ops)
			if err != nil {
				t.Fatal(err)
			}
			lb := distanceLowerBound(target, bounds, metric)
			img, err := db.Image(eid)
			if err != nil {
				t.Fatal(err)
			}
			if img.Size() == 0 {
				continue
			}
			truth := metric.Distance(target, histogram.Extract(img, db.Quantizer()))
			if lb > truth+1e-9 {
				t.Fatalf("%s edited %d: lower bound %v exceeds truth %v", metric, eid, lb, truth)
			}
		}
	}
}

func TestKNNMultiFusesRankings(t *testing.T) {
	db := memDB(t)
	redID, _ := db.InsertImage("red", imaging.NewFilled(8, 8, dataset.Red))
	blueID, _ := db.InsertImage("blue", imaging.NewFilled(8, 8, dataset.Blue))
	db.InsertImage("green", imaging.NewFilled(8, 8, dataset.Green))

	probeRed := histogram.Extract(imaging.NewFilled(8, 8, dataset.Red), db.Quantizer())
	probeBlue := histogram.Extract(imaging.NewFilled(8, 8, dataset.Blue), db.Quantizer())

	matches, st, err := db.KNNMulti([]*histogram.Histogram{probeRed, probeBlue}, 2, query.MetricL1)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Fatalf("%d matches", len(matches))
	}
	// Both exact matches fuse to distance 0, ordered by id.
	if matches[0].ID != redID || matches[1].ID != blueID {
		t.Fatalf("fused matches %v", matches)
	}
	if matches[0].Dist != 0 || matches[1].Dist != 0 {
		t.Fatalf("fused distances %v", matches)
	}
	// Stats accumulate across probes: 3 binaries × 2 probes.
	if st.BinariesScored != 6 {
		t.Fatalf("scored %d", st.BinariesScored)
	}
}

func TestKNNMultiSingleProbeEqualsKNN(t *testing.T) {
	db := memDB(t)
	populate(t, db, 5, 3, 0.2, 66)
	probe := dataset.Flags(1, 32, 24, 4)[0].Img
	target := histogram.Extract(probe, db.Quantizer())
	single, _, err := db.KNN(query.KNN{Target: target, K: 4, Metric: query.MetricL2})
	if err != nil {
		t.Fatal(err)
	}
	multi, _, err := db.KNNMulti([]*histogram.Histogram{target}, 4, query.MetricL2)
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != len(multi) {
		t.Fatalf("%d vs %d", len(single), len(multi))
	}
	for i := range single {
		if math.Abs(single[i].Dist-multi[i].Dist) > 1e-12 {
			t.Fatalf("rank %d: %v vs %v", i, single[i], multi[i])
		}
	}
}

func TestKNNMultiValidation(t *testing.T) {
	db := memDB(t)
	if _, _, err := db.KNNMulti(nil, 3, query.MetricL1); err == nil {
		t.Fatal("empty probe set accepted")
	}
}

func TestWithinDistanceMatchesBruteForce(t *testing.T) {
	db := memDB(t)
	populate(t, db, 6, 4, 0.3, 44)
	probe := dataset.Flags(1, 32, 24, 7)[0].Img
	target := histogram.Extract(probe, db.Quantizer())
	for _, metric := range []query.Metric{query.MetricL1, query.MetricIntersection} {
		for _, dist := range []float64{0.1, 0.5, 1.0, 2.0} {
			got, st, err := db.WithinDistance(target, dist, metric)
			if err != nil {
				t.Fatal(err)
			}
			// Brute force: every object's exact distance.
			all := bruteForceKNN(t, db, query.KNN{Target: target, K: 1 << 30, Metric: metric})
			var want []Match
			for _, m := range all {
				if m.Dist <= dist {
					want = append(want, m)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s d=%v: %d matches, want %d", metric, dist, len(got), len(want))
			}
			for i := range got {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					t.Fatalf("%s d=%v rank %d: %v vs %v", metric, dist, i, got[i], want[i])
				}
				if got[i].Dist > dist {
					t.Fatalf("result beyond distance: %v > %v", got[i].Dist, dist)
				}
			}
			if st.BinariesScored != 6 {
				t.Fatalf("scored %d", st.BinariesScored)
			}
		}
	}
}

func TestWithinDistanceValidation(t *testing.T) {
	db := memDB(t)
	db.InsertImage("x", imaging.NewFilled(4, 4, dataset.Red))
	h := histogram.Extract(imaging.NewFilled(4, 4, dataset.Red), db.Quantizer())
	if _, _, err := db.WithinDistance(nil, 1, query.MetricL1); err == nil {
		t.Fatal("nil target accepted")
	}
	if _, _, err := db.WithinDistance(h, -1, query.MetricL1); err == nil {
		t.Fatal("negative distance accepted")
	}
	if _, _, err := db.WithinDistance(histogram.New(3), 1, query.MetricL1); err == nil {
		t.Fatal("bin mismatch accepted")
	}
}
