package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/imaging"
	"repro/internal/query"
)

// Differential oracle harness. ModeInstantiate materializes every edited
// image and tests exact histograms, so it is the ground truth the paper's
// methods are measured against: RBM/BWM admit with interval bounds and may
// return false positives but must never lose a true match. The harness
// generates randomized databases and query workloads from fixed seeds and
// checks, for every combination:
//
//  1. soundness  — the oracle's result set is a subset of every bound
//     method's result set (no false negatives), and
//  2. agreement  — all bound methods return the identical set (they share
//     one BOUNDS definition), and
//  3. determinism — k-NN and within-distance, whose refinement runs on
//     GOMAXPROCS goroutines, return identical matches and statistics at
//     GOMAXPROCS 1 and 4.

// oracleBoundModes are the modes that answer from rule bounds; they must
// agree with each other and contain the instantiation oracle. ModeIndexed
// rides along: the S-tree is only a candidate filter over the same bounds,
// so it must answer identically to the scans.
var oracleBoundModes = []Mode{ModeRBM, ModeBWM, ModeIndexed}

func modeName(m Mode) string { return m.String() }

// oracleConfigs are the randomized database shapes: varying sizes, edit
// depths and widening/non-widening mixes, each under its own seed.
var oracleConfigs = []struct {
	seed    int64
	nBase   int
	perBase int
	nonWid  float64
}{
	{seed: 101, nBase: 4, perBase: 3, nonWid: 0},
	{seed: 202, nBase: 6, perBase: 3, nonWid: 0.3},
	{seed: 303, nBase: 5, perBase: 4, nonWid: 0.5},
	{seed: 404, nBase: 8, perBase: 2, nonWid: 0.8},
	{seed: 505, nBase: 3, perBase: 6, nonWid: 1},
}

// randomRanges draws a seeded workload of valid range queries, mixing tight
// intervals with half-open and degenerate ones.
func randomRanges(rng *rand.Rand, bins, n int) []query.Range {
	out := make([]query.Range, n)
	for i := range out {
		lo := rng.Float64()
		q := query.Range{Bin: rng.Intn(bins), PctMin: lo, PctMax: lo + rng.Float64()*(1-lo)}
		switch rng.Intn(8) {
		case 0:
			q.PctMin = 0 // "at most"
		case 1:
			q.PctMax = 1 // "at least"
		case 2:
			q.PctMin, q.PctMax = 0, 1 // everything
		case 3:
			q.PctMax = q.PctMin // point interval
		}
		out[i] = q
	}
	return out
}

// TestOracleBoundModesContainInstantiation runs 50 random queries against
// each of the 5 randomized databases (250 query/DB combinations): the
// instantiation oracle must be contained in every bound method's answer,
// and the bound methods must agree exactly.
func TestOracleBoundModesContainInstantiation(t *testing.T) {
	ctx := context.Background()
	for _, cfg := range oracleConfigs {
		cfg := cfg
		t.Run(fmt.Sprintf("seed=%d", cfg.seed), func(t *testing.T) {
			db := memDB(t)
			populate(t, db, cfg.nBase, cfg.perBase, cfg.nonWid, cfg.seed)
			rng := rand.New(rand.NewSource(cfg.seed * 7))
			for qi, q := range randomRanges(rng, db.cfg.Quantizer.Bins(), 50) {
				oracle, err := db.RangeQueryCtx(ctx, q, ModeInstantiate)
				if err != nil {
					t.Fatalf("query %d oracle: %v", qi, err)
				}
				var first *rbmResultIDs
				for _, mode := range oracleBoundModes {
					res, err := db.RangeQueryCtx(ctx, q, mode)
					if err != nil {
						t.Fatalf("query %d mode %s: %v", qi, modeName(mode), err)
					}
					if !subset(oracle.IDs, res.IDs) {
						t.Fatalf("query %d %+v: %s lost oracle matches: oracle %v, got %v",
							qi, q, modeName(mode), oracle.IDs, res.IDs)
					}
					if first == nil {
						first = &rbmResultIDs{mode: mode, ids: res.IDs}
					} else if !sameIDs(first.ids, res.IDs) {
						t.Fatalf("query %d %+v: %s and %s disagree: %v vs %v",
							qi, q, modeName(first.mode), modeName(mode), first.ids, res.IDs)
					}
				}
			}
		})
	}
}

// TestOracleKNNEqualsBruteForce is the similarity leg of the oracle: on each
// randomized database, k-NN and within-distance answers from the tree equal
// the instantiate-everything ranking in ids and distances, for every metric,
// for k from 1 to past the corpus, and for probes that tie with stored
// objects (a base, an instantiated edit) as well as a stranger.
func TestOracleKNNEqualsBruteForce(t *testing.T) {
	for _, cfg := range oracleConfigs {
		cfg := cfg
		t.Run(fmt.Sprintf("seed=%d", cfg.seed), func(t *testing.T) {
			db := memDB(t)
			populate(t, db, cfg.nBase, cfg.perBase, cfg.nonWid, cfg.seed)
			corpus := len(db.Binaries()) + len(db.EditedIDs())
			probes := []*imaging.Image{dataset.Flags(1, 32, 24, cfg.seed+99)[0].Img}
			for _, id := range []uint64{db.Binaries()[1], db.EditedIDs()[2]} {
				img, err := db.Image(id)
				if err != nil {
					t.Fatal(err)
				}
				probes = append(probes, img)
			}
			for _, probe := range probes {
				requireSimilarityEqualsBruteForce(t, db, histogram.Extract(probe, db.cfg.Quantizer), allMetrics, []int{1, 3, 10, corpus + 5})
			}
		})
	}
}

type rbmResultIDs struct {
	mode Mode
	ids  []uint64
}

// TestOracleParallelCompoundMultiKNN checks the one query path that fans
// out: k-NN and within-distance searches return identical matches and
// identical KNNStats whether refinement runs one worker wide or four
// (GOMAXPROCS 1 and 4).
func TestOracleParallelCompoundMultiKNN(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ctx := context.Background()
	cfg := oracleConfigs[1]
	db := memDB(t)
	populate(t, db, cfg.nBase, cfg.perBase, cfg.nonWid, cfg.seed)
	targetImg := dataset.Flags(1, 32, 24, cfg.seed+99)[0].Img
	target := histogram.Extract(targetImg, db.cfg.Quantizer)

	type snapshot struct {
		knn, within     []Match
		knnSt, withinSt KNNStats
	}
	capture := func() snapshot {
		knn, knnSt, err := db.KNNCtx(ctx, query.KNN{Target: target, K: 5, Metric: query.MetricL1})
		if err != nil {
			t.Fatal(err)
		}
		within, withinSt, err := db.WithinDistanceCtx(ctx, target, 0.6, query.MetricL1)
		if err != nil {
			t.Fatal(err)
		}
		return snapshot{knn, within, *knnSt, *withinSt}
	}

	runtime.GOMAXPROCS(1)
	serial := capture()
	runtime.GOMAXPROCS(4)
	got := capture()
	requireMatches(t, "knn 4 workers", got.knn, serial.knn)
	requireMatches(t, "within 4 workers", got.within, serial.within)
	if got.knnSt != serial.knnSt || got.withinSt != serial.withinSt {
		t.Fatalf("stats depend on the worker count: serial %+v %+v, 4 workers %+v %+v",
			serial.knnSt, serial.withinSt, got.knnSt, got.withinSt)
	}
}
