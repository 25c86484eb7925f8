package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/editops"
	"repro/internal/histogram"
	"repro/internal/imaging"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/stree"
)

// bruteForceKNN computes the exact k nearest objects by instantiating
// everything and sorting in the (dist, id) total order.
func bruteForceKNN(t testing.TB, db *DB, q query.KNN) []Match {
	t.Helper()
	var all []Match
	for _, id := range append(db.Binaries(), db.EditedIDs()...) {
		img, err := db.Image(id)
		if err != nil {
			t.Fatal(err)
		}
		if img.Size() == 0 {
			continue
		}
		h := histogram.Extract(img, db.Quantizer())
		all = append(all, Match{ID: id, Dist: q.Metric.Distance(q.Target, h)})
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

var allMetrics = []query.Metric{query.MetricL1, query.MetricL2, query.MetricIntersection}

// requireMatches fails unless got is want, Match for Match: ids and
// distances, bit for bit.
func requireMatches(t testing.TB, what string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\n got %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d is %+v, want %+v\n got %v\nwant %v", what, i, got[i], want[i], got, want)
		}
	}
}

// requireSimilarityEqualsBruteForce is the similarity oracle: for every
// metric, k-NN for each k and within-distance at radii taken from the
// ranking itself (so the inclusive boundary is hit exactly) must equal the
// instantiate-everything answer in ids and distances, and runs with
// refinement one and four goroutines wide (GOMAXPROCS 1 and 4) must return
// identical matches and identical KNNStats. GOMAXPROCS is restored on
// return.
func requireSimilarityEqualsBruteForce(t testing.TB, db *DB, target *histogram.Histogram, metrics []query.Metric, ks []int) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ctx := context.Background()
	nBin, nEd := len(db.Binaries()), len(db.EditedIDs())
	checkStats := func(what string, st *KNNStats) {
		t.Helper()
		if st.BinariesScored < 0 || st.BinariesScored > nBin {
			t.Fatalf("%s: scored %d binaries of %d", what, st.BinariesScored, nBin)
		}
		if st.EditedPruned+st.EditedInstantiated != nEd {
			t.Fatalf("%s: pruned %d + instantiated %d != %d edited", what, st.EditedPruned, st.EditedInstantiated, nEd)
		}
	}
	for _, metric := range metrics {
		all := bruteForceKNN(t, db, query.KNN{Target: target, K: 1 << 30, Metric: metric})
		for _, k := range ks {
			q := query.KNN{Target: target, K: k, Metric: metric}
			what := fmt.Sprintf("%s k=%d", metric, k)
			runtime.GOMAXPROCS(1)
			serial, serialSt, err := db.KNNCtx(ctx, q)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			requireMatches(t, what, serial, all[:min(k, len(all))])
			checkStats(what, serialSt)
			if want := min(k, nBin); serialSt.BinariesScored < want {
				t.Fatalf("%s: scored %d binaries, the threshold needs %d", what, serialSt.BinariesScored, want)
			}
			runtime.GOMAXPROCS(4)
			par, parSt, err := db.KNNCtx(ctx, q)
			if err != nil {
				t.Fatalf("%s parallel: %v", what, err)
			}
			requireMatches(t, what+" parallel", par, serial)
			if *parSt != *serialSt {
				t.Fatalf("%s: stats depend on the worker count: serial %+v, parallel %+v", what, *serialSt, *parSt)
			}
		}
		radii := []float64{0}
		for _, i := range []int{0, len(all) / 3, len(all) - 1} {
			if i >= 0 && i < len(all) {
				radii = append(radii, all[i].Dist, all[i].Dist*1.01+1e-6)
			}
		}
		for _, r := range radii {
			if r < 0 {
				continue // Intersection can round a hair below zero; the API rejects a negative radius
			}
			var want []Match
			for _, m := range all {
				if m.Dist <= r {
					want = append(want, m)
				}
			}
			what := fmt.Sprintf("%s within %v", metric, r)
			runtime.GOMAXPROCS(1)
			serial, serialSt, err := db.WithinDistanceCtx(ctx, target, r, metric)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			requireMatches(t, what, serial, want)
			checkStats(what, serialSt)
			runtime.GOMAXPROCS(4)
			par, parSt, err := db.WithinDistanceCtx(ctx, target, r, metric)
			if err != nil {
				t.Fatalf("%s parallel: %v", what, err)
			}
			requireMatches(t, what+" parallel", par, serial)
			if *parSt != *serialSt {
				t.Fatalf("%s: stats depend on the worker count: serial %+v, parallel %+v", what, *serialSt, *parSt)
			}
		}
	}
}

// identityEdit is an editing sequence whose instantiation is its base,
// pixel for pixel: it recolours a colour no generated raster contains. Its
// bounds box still widens, so only the tie rule or an instantiation can rank
// it.
func identityEdit(base uint64, w, h int) *editops.Sequence {
	absent := imaging.RGB{R: 3, G: 5, B: 7}
	ops := editops.Recolor(imaging.Rect{X0: 0, Y0: 0, X1: w, Y1: h}, [2]imaging.RGB{absent, dataset.Blue})
	return &editops.Sequence{BaseID: base, Ops: ops}
}

// tieCorpus builds a database made to tie: base A three times over (ids 1,
// 3, 4), an identity edit of A between them (id 2) and another inserted last
// (the highest id), a populate() wave in the middle whose first base is
// stored twice more with an identity edit of its own. Returns A's histogram
// and B's histograms and the two identity edits of A.
func tieCorpus(t testing.TB, db *DB) (probeA, probeB *histogram.Histogram, low, high uint64) {
	t.Helper()
	ctx := context.Background()
	a := dataset.Flags(1, 32, 24, 900)[0].Img
	insert := func(name string, img *imaging.Image) uint64 {
		id, err := db.InsertImageCtx(ctx, 0, name, img)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	edit := func(name string, seq *editops.Sequence) uint64 {
		id, err := db.InsertEditedCtx(ctx, 0, name, seq)
		if err != nil {
			t.Fatal(err)
		}
		img, err := db.Image(id)
		if err != nil {
			t.Fatal(err)
		}
		base, err := db.Image(seq.BaseID)
		if err != nil {
			t.Fatal(err)
		}
		if !img.Equal(base) {
			t.Fatalf("%s does not instantiate to its base", name)
		}
		return id
	}
	a1 := insert("a", a)
	low = edit("a-low", identityEdit(a1, a.W, a.H))
	insert("a-dup1", a)
	insert("a-dup2", a)
	bases := populate(t, db, 6, 3, 0.3, 901)
	b, err := db.Image(bases[0])
	if err != nil {
		t.Fatal(err)
	}
	insert("b-dup1", b)
	edit("b-mid", identityEdit(bases[0], b.W, b.H))
	insert("b-dup2", b)
	high = edit("a-high", identityEdit(a1, a.W, a.H))
	if a1 != 1 || low != 2 {
		t.Fatalf("ids are not insertion-ordered: a=%d low=%d", a1, low)
	}
	return histogram.Extract(a, db.Quantizer()), histogram.Extract(b, db.Quantizer()), low, high
}

// TestKNNMatchesBruteForce holds k-NN to the (dist, id) total order exactly
// — ids, not just distances — on a corpus built to tie, for every metric and
// every k from 1 past the corpus size, with the k-th distance zero (probe A,
// small k), positive, and tied between duplicate bases and their identity
// edits (probe B).
func TestKNNMatchesBruteForce(t *testing.T) {
	db := memDB(t)
	probeA, probeB, _, _ := tieCorpus(t, db)
	corpus := len(db.Binaries()) + len(db.EditedIDs())
	ks := make([]int, 0, corpus+5)
	for k := 1; k <= corpus+5; k++ {
		ks = append(ks, k)
	}
	requireSimilarityEqualsBruteForce(t, db, probeA, allMetrics, ks)
	requireSimilarityEqualsBruteForce(t, db, probeB, allMetrics, ks)
	stranger := dataset.Flags(1, 32, 24, 99)[0].Img
	requireSimilarityEqualsBruteForce(t, db, histogram.Extract(stranger, db.Quantizer()), allMetrics, []int{1, 3, 10, corpus + 5})
}

// TestKNNTieRulePrunesOnID pins what the tie rule buys: with the k-th
// distance tied at zero, an edited image whose box contains the probe is
// instantiated only if its id could still enter the answer.
func TestKNNTieRulePrunesOnID(t *testing.T) {
	db := memDB(t)
	probe, _, low, high := tieCorpus(t, db)
	for _, metric := range allMetrics {
		for k, wantInst := range map[int]int{1: 0, 2: 1, 3: 1} {
			got, st, err := db.KNNCtx(context.Background(), query.KNN{Target: probe, K: k, Metric: metric})
			if err != nil {
				t.Fatal(err)
			}
			// The answer is ids 1..k: base A, its low identity edit, A again.
			for i, m := range got {
				if m.ID != uint64(i+1) {
					t.Fatalf("%s k=%d: rank %d is %+v", metric, k, i, m)
				}
			}
			// k ≥ 2: the low edit (id 2) beats binary id 3 on id, so it must be
			// rendered; the high edit ties on distance, loses on id, and must
			// not be — nor may any other edited image whose box holds the probe.
			if st.EditedInstantiated != wantInst {
				t.Fatalf("%s k=%d: instantiated %d edited images, want %d (low=%d high=%d)", metric, k, st.EditedInstantiated, wantInst, low, high)
			}
		}
	}
}

// TestKNNTiedProbeStopsAtTies pins the subtree half of the tie rule on a
// flags corpus: a stored flag shares its histogram with at least k others,
// so the k-th distance is 0 and every edited image whose box holds the
// probe ties on the lower bound. The descent must stop once it holds its k
// ties — a few leaves, not every box that contains the probe — and still
// return the brute-force answer with refinement one and four goroutines
// wide.
func TestKNNTiedProbeStopsAtTies(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const k = 10
	db := memDB(t)
	bases := populate(t, db, 200, 2, 0.3, 5)
	items := len(db.Binaries()) + len(db.EditedIDs())
	if items < 600 {
		t.Fatalf("corpus holds %d objects, want ≥ 600", items)
	}
	// The probe is the base with the most exact twins among the bases.
	var target *histogram.Histogram
	most := 0
	for _, id := range bases {
		obj, err := db.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		twins := 0
		for _, other := range bases {
			o, err := db.Get(other)
			if err != nil {
				t.Fatal(err)
			}
			if query.MetricL1.Distance(obj.Hist, o.Hist) == 0 {
				twins++
			}
		}
		if twins > most {
			target, most = obj.Hist, twins
		}
	}
	if most < k {
		t.Fatalf("no base has %d twins (best %d): the probe would not tie", k, most)
	}
	for _, metric := range allMetrics {
		q := query.KNN{Target: target, K: k, Metric: metric}
		want := bruteForceKNN(t, db, q)
		var runs [2][]Match
		var stats [2]KNNStats
		for i, par := range []int{1, 4} {
			runtime.GOMAXPROCS(par)
			tr := obs.NewTrace()
			got, st, err := db.KNNCtx(context.Background(), q, WithTrace(tr))
			if err != nil {
				t.Fatal(err)
			}
			requireMatches(t, fmt.Sprintf("%s GOMAXPROCS %d", metric, par), got, want)
			if lc := tr.Get(obs.TIndexLeafChecks); lc*20 > int64(items) {
				t.Fatalf("%s GOMAXPROCS %d: %d leaf checks over %d items, want ≤ 5%%", metric, par, lc, items)
			}
			runs[i], stats[i] = got, *st
		}
		requireMatches(t, metric.String()+" serial vs parallel", runs[1], runs[0])
		if stats[0] != stats[1] {
			t.Fatalf("%s: stats depend on the worker count: serial %+v, parallel %+v", metric, stats[0], stats[1])
		}
	}
}

func TestKNNPrunesSomething(t *testing.T) {
	ctx := context.Background()
	db := memDB(t)
	// Insert a base identical to the probe so exact matches fill the top-k
	// quickly and distant edits become prunable.
	probe := imaging.NewFilled(16, 16, dataset.Blue)
	db.InsertImageCtx(ctx, 0, "blue", probe)
	populate(t, db, 8, 5, 0.0, 33)
	target := histogram.Extract(probe, db.Quantizer())
	_, st, err := db.KNNCtx(ctx, query.KNN{Target: target, K: 1, Metric: query.MetricL1})
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
		if _, err := db.InsertImageCtx(context.Background(), 0, f.Name+"-dup", f.Img); err != nil {
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
		id, err := db.InsertImageCtx(context.Background(), 0, fmt.Sprintf("b%d", i), imaging.NewFilled(2, 2, dataset.Red))
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
	ctx := context.Background()
	db := memDB(t)
	db.InsertImageCtx(ctx, 0, "x", imaging.NewFilled(4, 4, dataset.Red))
	if _, _, err := db.KNNCtx(ctx, query.KNN{Target: nil, K: 1}); err == nil {
		t.Fatal("nil target accepted")
	}
	wrongBins := histogram.New(8)
	if _, _, err := db.KNNCtx(ctx, query.KNN{Target: wrongBins, K: 1}); err == nil {
		t.Fatal("bin mismatch accepted")
	}
	if _, err := db.KNNBinary(query.KNN{Target: wrongBins, K: 1}); err == nil {
		t.Fatal("KNNBinary bin mismatch accepted")
	}
}

// TestDistanceLowerBoundIsSound is the property the (lb, id) tie rule leans
// on: for every item of the S-tree, every metric and a spread of probes,
// the bound the search computes leaf-wide (boxLowerBounds) never exceeds
// the exact distance of the instantiated image — as floats, with no
// tolerance — and on a binary image's point box it IS the exact distance,
// bit for bit.
func TestDistanceLowerBoundIsSound(t *testing.T) {
	db := memDB(t)
	populate(t, db, 6, 5, 0.4, 77)
	if err := db.ensureSearchIndex(nil); err != nil {
		t.Fatal(err)
	}
	probes := []*imaging.Image{dataset.Helmets(1, 32, 24, 1)[0].Img, dataset.Flags(1, 32, 24, 8)[0].Img}
	for _, id := range []uint64{db.Binaries()[0], db.EditedIDs()[0], db.EditedIDs()[7]} {
		img, err := db.Image(id) // stored and instantiated images as probes: lb = dist = 0 ties
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, img)
	}
	for _, probe := range probes {
		target := histogram.Extract(probe, db.Quantizer())
		tn := target.Normalized()
		for _, metric := range allMetrics {
			var vst stree.VisitStats
			leaves := 0
			err := db.sidx.Snapshot().BestFirst(
				func(b stree.Boxes, sel []int, out []float64) []float64 {
					return boxLowerBounds(tn, b, sel, metric, out)
				},
				func(float64, uint64) bool { return false },
				func(l *stree.Leaf, sel []int, lbs []float64) error {
					for j, lb := range lbs {
						leaves++
						i := sel[j]
						id := l.ID(i)
						img, err := db.Image(id)
						if err != nil {
							return err
						}
						if img.Size() == 0 {
							continue
						}
						truth := metric.Distance(target, histogram.Extract(img, db.Quantizer()))
						if lb > truth {
							return fmt.Errorf("%s object %d: lower bound %v exceeds the exact distance %v by %g", metric, id, lb, truth, lb-truth)
						}
						if l.Kind(i) == sidxBinary && lb != truth {
							return fmt.Errorf("%s binary %d: point-box bound %v is not the exact distance %v", metric, id, lb, truth)
						}
					}
					return nil
				}, &vst)
			if err != nil {
				t.Fatal(err)
			}
			if want := len(db.Binaries()) + len(db.EditedIDs()); leaves != want {
				t.Fatalf("visited %d leaves, corpus has %d objects", leaves, want)
			}
		}
	}
}

func TestKNNMultiFusesRankings(t *testing.T) {
	ctx := context.Background()
	db := memDB(t)
	redID, _ := db.InsertImageCtx(ctx, 0, "red", imaging.NewFilled(8, 8, dataset.Red))
	blueID, _ := db.InsertImageCtx(ctx, 0, "blue", imaging.NewFilled(8, 8, dataset.Blue))
	db.InsertImageCtx(ctx, 0, "green", imaging.NewFilled(8, 8, dataset.Green))

	probeRed := histogram.Extract(imaging.NewFilled(8, 8, dataset.Red), db.Quantizer())
	probeBlue := histogram.Extract(imaging.NewFilled(8, 8, dataset.Blue), db.Quantizer())

	matches, st, err := db.KNNMultiCtx(ctx, []*histogram.Histogram{probeRed, probeBlue}, 2, query.MetricL1)
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
	ctx := context.Background()
	db := memDB(t)
	populate(t, db, 5, 3, 0.2, 66)
	probe := dataset.Flags(1, 32, 24, 4)[0].Img
	target := histogram.Extract(probe, db.Quantizer())
	single, _, err := db.KNNCtx(ctx, query.KNN{Target: target, K: 4, Metric: query.MetricL2})
	if err != nil {
		t.Fatal(err)
	}
	multi, _, err := db.KNNMultiCtx(ctx, []*histogram.Histogram{target}, 4, query.MetricL2)
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
	if _, _, err := db.KNNMultiCtx(context.Background(), nil, 3, query.MetricL1); err == nil {
		t.Fatal("empty probe set accepted")
	}
}

func TestWithinDistanceMatchesBruteForce(t *testing.T) {
	db := memDB(t)
	populate(t, db, 6, 4, 0.3, 44)
	probe := dataset.Flags(1, 32, 24, 7)[0].Img
	target := histogram.Extract(probe, db.Quantizer())
	for _, metric := range allMetrics {
		all := bruteForceKNN(t, db, query.KNN{Target: target, K: 1 << 30, Metric: metric})
		for _, dist := range []float64{0.1, 0.5, 1.0, 2.0} {
			got, st, err := db.WithinDistanceCtx(context.Background(), target, dist, metric)
			if err != nil {
				t.Fatal(err)
			}
			var want []Match
			for _, m := range all {
				if m.Dist <= dist {
					want = append(want, m)
				}
			}
			requireMatches(t, fmt.Sprintf("%s d=%v", metric, dist), got, want)
			// Every binary image is within 2.0 of anything, so that radius
			// must have scored them all; a small one may skip whole leaves.
			if st.BinariesScored > 6 || (dist == 2.0 && st.BinariesScored != 6) {
				t.Fatalf("%s d=%v: scored %d binaries of 6", metric, dist, st.BinariesScored)
			}
			if st.EditedPruned+st.EditedInstantiated != len(db.EditedIDs()) {
				t.Fatalf("%s d=%v: pruned %d + instantiated %d != %d edited", metric, dist, st.EditedPruned, st.EditedInstantiated, len(db.EditedIDs()))
			}
		}
	}
}

// TestWithinDistanceDuringDeletes is TestKNNBinaryDuringDeletes for the
// within-distance search (and, on the same descent, k-NN): objects deleted
// while a search runs are skipped, never surfaced as the query's error. Run
// with -race.
func TestWithinDistanceDuringDeletes(t *testing.T) {
	db := memDB(t)
	var ids []uint64
	for i := 0; i < 60; i++ {
		base, err := db.InsertImageCtx(context.Background(), 0, fmt.Sprintf("b%d", i), imaging.NewFilled(4, 4, dataset.Red))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			id, err := db.InsertEditedCtx(context.Background(), 0, fmt.Sprintf("e%d-%d", i, j), identityEdit(base, 4, 4))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		ids = append(ids, base) // a base goes after its dependents
	}
	target := histogram.Extract(imaging.NewFilled(4, 4, dataset.Red), db.Quantizer())
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
			deleting = false // one more search over the emptied database
		default:
		}
		if _, _, err := db.WithinDistanceCtx(ctx, target, 0.5, query.MetricL2); err != nil {
			t.Errorf("WithinDistance during deletes: %v", err)
			break
		}
		if _, _, err := db.KNNCtx(ctx, query.KNN{Target: target, K: 200, Metric: query.MetricL1}); err != nil {
			t.Errorf("KNN during deletes: %v", err)
			break
		}
	}
	<-done
}

// TestWithinDistanceRejectsUnknownMetric: an out-of-range Metric is a typed
// validation error on a non-empty database, not a panic inside Distance.
func TestWithinDistanceRejectsUnknownMetric(t *testing.T) {
	ctx := context.Background()
	db := memDB(t)
	populate(t, db, 2, 1, 0, 3)
	h := histogram.Extract(imaging.NewFilled(4, 4, dataset.Red), db.Quantizer())
	if _, _, err := db.WithinDistanceCtx(ctx, h, 0.1, query.Metric(9)); !errors.Is(err, query.ErrUnknownMetric) {
		t.Fatalf("WithinDistance with metric 9: %v, want ErrUnknownMetric", err)
	}
	if _, _, err := db.KNNCtx(ctx, query.KNN{Target: h, K: 1, Metric: query.Metric(9)}); !errors.Is(err, query.ErrUnknownMetric) {
		t.Fatalf("KNN with metric 9: %v, want ErrUnknownMetric", err)
	}
}

func TestWithinDistanceValidation(t *testing.T) {
	ctx := context.Background()
	db := memDB(t)
	db.InsertImageCtx(ctx, 0, "x", imaging.NewFilled(4, 4, dataset.Red))
	h := histogram.Extract(imaging.NewFilled(4, 4, dataset.Red), db.Quantizer())
	if _, _, err := db.WithinDistanceCtx(ctx, nil, 1, query.MetricL1); err == nil {
		t.Fatal("nil target accepted")
	}
	if _, _, err := db.WithinDistanceCtx(ctx, h, -1, query.MetricL1); err == nil {
		t.Fatal("negative distance accepted")
	}
	// lb > NaN is never true: a NaN radius would render every edited image
	// and keep none of them.
	if _, _, err := db.WithinDistanceCtx(ctx, h, math.NaN(), query.MetricL1); err == nil {
		t.Fatal("NaN distance accepted")
	}
	if got, _, err := db.WithinDistanceCtx(ctx, h, math.Inf(1), query.MetricL1); err != nil || len(got) != 1 {
		t.Fatalf("+Inf distance: %v, %v; want the one stored image", got, err)
	}
	if _, _, err := db.WithinDistanceCtx(ctx, histogram.New(3), 1, query.MetricL1); err == nil {
		t.Fatal("bin mismatch accepted")
	}
}

// TestKNNRefinementHonorsCancel: in a database of fewer than ctxEvery
// objects the descent never reads the context, so the first check a
// canceled k-NN reaches is refinement's, per candidate. It must return
// context.Canceled at every refinement width and leave no goroutine behind.
func TestKNNRefinementHonorsCancel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ctx := context.Background()
	db := memDB(t)
	var bases []uint64
	for _, c := range []imaging.RGB{dataset.Red, dataset.Blue} {
		id, err := db.InsertImageCtx(ctx, 0, "base", imaging.NewFilled(8, 8, c))
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, id)
	}
	for i := 0; i < 6; i++ {
		if _, err := db.InsertEditedCtx(ctx, 0, "edit", identityEdit(bases[i%2], 8, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(db.Binaries()) + len(db.EditedIDs()); n >= ctxEvery {
		t.Fatalf("%d objects: the descent would check the context", n)
	}
	// k above the object count keeps every edited image a candidate.
	q := query.KNN{Target: histogram.Extract(imaging.NewFilled(8, 8, dataset.Green), db.Quantizer()), K: 10, Metric: query.MetricL1}
	_, st, err := db.KNNCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if st.EditedInstantiated != 6 {
		t.Fatalf("uncanceled k-NN instantiated %d edited images, want 6", st.EditedInstantiated)
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	before := runtime.NumGoroutine()
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		if _, _, err := db.KNNCtx(canceled, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("GOMAXPROCS %d: got %v, want context.Canceled", procs, err)
		}
	}
	// Refinement waits for its goroutines, but one that has signalled may
	// not have exited yet.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the canceled queries, %d before", runtime.NumGoroutine(), before)
		}
	}
}
