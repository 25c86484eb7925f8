package core

import (
	"context"
	"fmt"
	"math/rand"
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
//  3. determinism — each mode returns element-for-element identical
//     results and statistics at Parallelism 1, 2 and 8.

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
	for _, cfg := range oracleConfigs {
		cfg := cfg
		t.Run(fmt.Sprintf("seed=%d", cfg.seed), func(t *testing.T) {
			db := memDB(t)
			populate(t, db, cfg.nBase, cfg.perBase, cfg.nonWid, cfg.seed)
			rng := rand.New(rand.NewSource(cfg.seed * 7))
			for qi, q := range randomRanges(rng, db.cfg.Quantizer.Bins(), 50) {
				oracle, err := db.RangeQuery(q, ModeInstantiate)
				if err != nil {
					t.Fatalf("query %d oracle: %v", qi, err)
				}
				var first *rbmResultIDs
				for _, mode := range oracleBoundModes {
					res, err := db.RangeQuery(q, mode)
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

// TestOracleParallelMatchesSerial checks determinism: every mode, on every
// randomized database, returns element-for-element identical ids and
// identical statistics at Parallelism 1, 2 and 8.
func TestOracleParallelMatchesSerial(t *testing.T) {
	allModes := append([]Mode{ModeInstantiate}, oracleBoundModes...)
	for _, cfg := range oracleConfigs {
		cfg := cfg
		t.Run(fmt.Sprintf("seed=%d", cfg.seed), func(t *testing.T) {
			db := memDB(t)
			populate(t, db, cfg.nBase, cfg.perBase, cfg.nonWid, cfg.seed)
			rng := rand.New(rand.NewSource(cfg.seed * 13))
			queries := randomRanges(rng, db.cfg.Quantizer.Bins(), 10)
			for _, mode := range allModes {
				for qi, q := range queries {
					db.SetParallelism(1)
					serial, err := db.RangeQuery(q, mode)
					if err != nil {
						t.Fatalf("mode %s query %d serial: %v", modeName(mode), qi, err)
					}
					for _, par := range []int{2, 8} {
						db.SetParallelism(par)
						got, err := db.RangeQuery(q, mode)
						if err != nil {
							t.Fatalf("mode %s query %d par=%d: %v", modeName(mode), qi, par, err)
						}
						if !sameIDs(serial.IDs, got.IDs) {
							t.Fatalf("mode %s query %d %+v: par=%d ids diverge: serial %v, parallel %v",
								modeName(mode), qi, q, par, serial.IDs, got.IDs)
						}
						if got.Stats != serial.Stats {
							t.Fatalf("mode %s query %d: par=%d stats diverge: serial %+v, parallel %+v",
								modeName(mode), qi, par, serial.Stats, got.Stats)
						}
					}
				}
			}
		})
	}
}

// TestOracleParallelCompoundMultiKNN extends the parallel/serial identity
// to the other query surfaces: compound queries, multi-bin ranges, k-NN and
// within-distance searches.
func TestOracleParallelCompoundMultiKNN(t *testing.T) {
	cfg := oracleConfigs[1]
	db := memDB(t)
	populate(t, db, cfg.nBase, cfg.perBase, cfg.nonWid, cfg.seed)
	rng := rand.New(rand.NewSource(cfg.seed * 17))
	bins := db.cfg.Quantizer.Bins()
	ranges := randomRanges(rng, bins, 8)

	targetImg := dataset.Flags(1, 32, 24, cfg.seed+99)[0].Img
	target := histogram.Extract(targetImg, db.cfg.Quantizer)

	type snapshot struct {
		compound []*rbmResultIDs
		multi    []*rbmResultIDs
		knn      []Match
		within   []Match
	}
	capture := func() snapshot {
		var s snapshot
		for _, conn := range []query.Connective{query.And, query.Or} {
			c := query.Compound{Terms: ranges[:3], Conn: conn}
			res, err := db.CompoundQuery(c, ModeBWM)
			if err != nil {
				t.Fatal(err)
			}
			s.compound = append(s.compound, &rbmResultIDs{ids: res.IDs})
		}
		for _, mode := range []Mode{ModeRBM, ModeBWM, ModeInstantiate, ModeIndexed} {
			mq := query.MultiRange{Bins: []int{0, 1, 5}, PctMin: 0.05, PctMax: 0.9}
			res, err := db.RangeQueryMulti(mq, mode)
			if err != nil {
				t.Fatal(err)
			}
			s.multi = append(s.multi, &rbmResultIDs{mode: mode, ids: res.IDs})
		}
		knn, _, err := db.KNNCtx(context.Background(), query.KNN{Target: target, K: 5, Metric: query.MetricL1})
		if err != nil {
			t.Fatal(err)
		}
		s.knn = knn
		within, _, err := db.WithinDistance(target, 0.6, query.MetricL1)
		if err != nil {
			t.Fatal(err)
		}
		s.within = within
		return s
	}

	db.SetParallelism(1)
	serial := capture()
	// A negative knob means auto (0), which must answer like any other
	// setting.
	for _, par := range []int{2, 8, -1} {
		db.SetParallelism(par)
		if want := max(par, 0); db.Parallelism() != want {
			t.Fatalf("SetParallelism(%d): knob reads %d, want %d", par, db.Parallelism(), want)
		}
		got := capture()
		for i := range serial.compound {
			if !sameIDs(serial.compound[i].ids, got.compound[i].ids) {
				t.Fatalf("par=%d compound %d diverges: %v vs %v", par, i, serial.compound[i].ids, got.compound[i].ids)
			}
		}
		for i := range serial.multi {
			if !sameIDs(serial.multi[i].ids, got.multi[i].ids) {
				t.Fatalf("par=%d multi mode %s diverges: %v vs %v",
					par, modeName(serial.multi[i].mode), serial.multi[i].ids, got.multi[i].ids)
			}
		}
		if len(got.knn) != len(serial.knn) {
			t.Fatalf("par=%d knn length %d vs %d", par, len(got.knn), len(serial.knn))
		}
		for i := range serial.knn {
			if got.knn[i] != serial.knn[i] {
				t.Fatalf("par=%d knn[%d] %+v vs %+v", par, i, got.knn[i], serial.knn[i])
			}
		}
		if len(got.within) != len(serial.within) {
			t.Fatalf("par=%d within length %d vs %d", par, len(got.within), len(serial.within))
		}
		for i := range serial.within {
			if got.within[i] != serial.within[i] {
				t.Fatalf("par=%d within[%d] %+v vs %+v", par, i, got.within[i], serial.within[i])
			}
		}
	}
}
