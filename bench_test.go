// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// per table and figure (run `go test -bench=.` or, for the formatted
// series, `go run ./cmd/benchfig -exp all`):
//
//	BenchmarkTable1Rules        — Table 1: the rule engine itself
//	BenchmarkTable2Corpora      — Table 2: corpus construction at the
//	                              default parameters (reports the realized
//	                              composition as custom metrics)
//	BenchmarkFigure3Helmet      — Figure 3: helmet sweep, RBM vs BWM
//	BenchmarkFigure4Flag        — Figure 4: flag sweep, RBM vs BWM
//	BenchmarkAblation*          — DESIGN.md ablations (widening share,
//	                              ops/image, instantiation baseline,
//	                              precomputed bounds)
//	BenchmarkExtension*         — DESIGN.md extensions (pruned k-NN,
//	                              BIC signatures)
//	BenchmarkPagedRange         — EXPERIMENTS.md extension: what a page
//	                              costs under WithLimit, by depth and
//	                              selectivity, scans against the S-tree
//	BenchmarkIndexedLeaves      — the S-tree's per-leaf decision: colour
//	                              families of 8, 4 and 1 bins and a
//	                              compound, unlimited
//	BenchmarkKNNProbe           — k-NN at paper_mix's shape, for probes that
//	                              tie with stored images and probes that
//	                              do not
//	BenchmarkInsertEdited       — what maintaining the S-tree costs a write
//
// plus micro-benchmarks for the substrates (histogram extraction,
// instantiation and BOUNDS walks).
package mmdb_test

import (
	"context"
	"fmt"
	"testing"

	mmdb "repro"
	"repro/internal/bench"
	"repro/internal/colorspace"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/editops"
	"repro/internal/histogram"
	"repro/internal/imaging"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rbm"
	"repro/internal/rules"
)

// benchCorpus caches corpora across benchmark runs.
var benchCorpora = map[string]*bench.Corpus{}

func corpusFor(b *testing.B, cfg bench.Config) *bench.Corpus {
	b.Helper()
	if c, ok := benchCorpora[cfg.Name]; ok {
		return c
	}
	c, err := bench.BuildCorpus(cfg)
	if err != nil {
		b.Fatal(err)
	}
	benchCorpora[cfg.Name] = c
	return c
}

// benchFigure runs one figure's sweep as sub-benchmarks: for each sequence
// percentage, the full query workload under RBM and BWM.
func benchFigure(b *testing.B, cfg bench.Config) {
	corpus := corpusFor(b, cfg)
	total := cfg.Total()
	for _, pct := range []int{20, 40, 60, 78} {
		n := pct * total / 100
		if n > cfg.Edited {
			n = cfg.Edited
		}
		db, err := corpus.BuildDBAt(n)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []core.Mode{core.ModeRBM, core.ModeBWM} {
			b.Run(fmt.Sprintf("seqPct=%d/%s", pct, mode), func(b *testing.B) {
				b.ReportAllocs()
				var ops int
				for i := 0; i < b.N; i++ {
					_, tot, err := corpus.RunWorkload(db, mode)
					if err != nil {
						b.Fatal(err)
					}
					ops = tot.OpsEvaluated
				}
				b.ReportMetric(float64(ops), "rule-evals/workload")
			})
		}
		db.Close()
	}
}

// BenchmarkFigure3Helmet regenerates Figure 3 (helmet data set).
func BenchmarkFigure3Helmet(b *testing.B) { benchFigure(b, bench.HelmetConfig()) }

// BenchmarkFigure4Flag regenerates Figure 4 (flag data set).
func BenchmarkFigure4Flag(b *testing.B) { benchFigure(b, bench.FlagConfig()) }

// BenchmarkTable1Rules measures the Table 1 rule engine: one BOUNDS walk
// over a representative sequence per iteration.
func BenchmarkTable1Rules(b *testing.B) {
	q := colorspace.NewUniformRGB(4)
	img := dataset.Flags(1, 48, 32, 1)[0].Img
	hist := histogram.Extract(img, q)
	engine := rules.NewEngine(q, imaging.RGB{}, nil)
	aug := dataset.NewAugmenter(dataset.AugmentConfig{PerBase: 1, OpsPerImage: 6, Seed: 2})
	seq := aug.ScriptsFor(1, img, nil)[0]
	bin := q.Bin(dataset.Red)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.BoundsForBin(hist, img.W, img.H, seq.Ops, bin); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(seq.Ops)), "ops/walk")
}

// BenchmarkTable2Corpora measures construction of the two default corpora
// and reports the realized Table 2 composition.
func BenchmarkTable2Corpora(b *testing.B) {
	for _, cfg := range []bench.Config{bench.HelmetConfig(), bench.FlagConfig()} {
		b.Run(cfg.Name, func(b *testing.B) {
			var st core.DBStats
			for i := 0; i < b.N; i++ {
				corpus, err := bench.BuildCorpus(cfg)
				if err != nil {
					b.Fatal(err)
				}
				db, err := corpus.BuildDBAt(cfg.Edited)
				if err != nil {
					b.Fatal(err)
				}
				st, err = db.Stats()
				if err != nil {
					b.Fatal(err)
				}
				db.Close()
			}
			b.ReportMetric(float64(st.Catalog.Images), "images")
			b.ReportMetric(float64(st.Catalog.WideningOnly), "widening-only")
			b.ReportMetric(float64(st.Catalog.NonWidening), "non-widening")
			b.ReportMetric(st.Catalog.AvgOpsPerEdited, "avg-ops")
		})
	}
}

// BenchmarkAblationWidening sweeps the non-widening share (ablation A).
func BenchmarkAblationWidening(b *testing.B) {
	cfg := bench.FlagConfig()
	cfg.Queries = 30
	for _, frac := range []float64{0, 0.5, 1} {
		c := cfg
		c.NonWidening = int(frac * float64(cfg.Edited))
		c.Name = fmt.Sprintf("flag-bench-nw%.0f", frac*100)
		corpus := corpusFor(b, c)
		db, err := corpus.BuildDBAt(c.Edited)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("nonWidening=%.0f%%", frac*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := corpus.RunWorkload(db, core.ModeBWM); err != nil {
					b.Fatal(err)
				}
			}
		})
		db.Close()
	}
}

// BenchmarkAblationOpsPerImage sweeps sequence length (ablation B).
func BenchmarkAblationOpsPerImage(b *testing.B) {
	cfg := bench.FlagConfig()
	cfg.Queries = 30
	for _, ops := range []int{2, 6, 12} {
		c := cfg
		c.OpsPerImage = ops
		c.Name = fmt.Sprintf("flag-bench-ops%d", ops)
		corpus := corpusFor(b, c)
		db, err := corpus.BuildDBAt(c.Edited)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := corpus.RunWorkload(db, core.ModeBWM); err != nil {
					b.Fatal(err)
				}
			}
		})
		db.Close()
	}
}

// BenchmarkAblationInstantiate compares all execution modes (ablation C) —
// the instantiation ground truth versus the bound-based methods.
func BenchmarkAblationInstantiate(b *testing.B) {
	cfg := bench.HelmetConfig()
	cfg.Queries = 10
	corpus := corpusFor(b, cfg)
	db, err := corpus.BuildDBAt(cfg.Edited)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for _, mode := range []core.Mode{core.ModeInstantiate, core.ModeRBM, core.ModeBWM, core.ModeIndexed} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := corpus.RunWorkload(db, mode); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtensionKNN measures k-NN with bound pruning (extension D).
func BenchmarkExtensionKNN(b *testing.B) {
	cfg := bench.HelmetConfig()
	corpus := corpusFor(b, cfg)
	db, err := corpus.BuildDBAt(cfg.Edited)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	probe := dataset.Helmets(1, cfg.ImgW, cfg.ImgH, 99)[0].Img
	target := histogram.Extract(probe, colorspace.NewUniformRGB(4))
	b.ReportAllocs()
	b.ResetTimer()
	var pruned int
	for i := 0; i < b.N; i++ {
		_, st, err := db.KNNCtx(context.Background(), query.KNN{Target: target, K: 5, Metric: query.MetricL1})
		if err != nil {
			b.Fatal(err)
		}
		pruned = st.EditedPruned
	}
	b.ReportMetric(float64(pruned), "edited-pruned")
}

// --- Substrate micro-benchmarks ---

func BenchmarkHistogramExtract(b *testing.B) {
	img := dataset.Flags(1, 128, 96, 1)[0].Img
	q := colorspace.NewUniformRGB(4)
	b.SetBytes(int64(3 * img.Size()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		histogram.Extract(img, q)
	}
}

func BenchmarkInstantiateSequence(b *testing.B) {
	img := dataset.Flags(1, 64, 48, 1)[0].Img
	aug := dataset.NewAugmenter(dataset.AugmentConfig{PerBase: 1, OpsPerImage: 5, Seed: 3})
	seq := aug.ScriptsFor(1, img, nil)[0]
	env := &editops.Env{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := editops.Apply(img, seq.Ops, env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertImage(b *testing.B) {
	db, err := mmdb.Open()
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	img := dataset.Helmets(1, 64, 48, 1)[0].Img
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.InsertImageCtx(context.Background(), "x", img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionBIC measures BIC signature extraction + search
// (extension F).
func BenchmarkExtensionBIC(b *testing.B) {
	cfg := bench.HelmetConfig()
	corpus := corpusFor(b, cfg)
	db, err := corpus.BuildDBAt(0)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	idx, err := db.BICIndex()
	if err != nil {
		b.Fatal(err)
	}
	probe := dataset.Helmets(1, cfg.ImgW, cfg.ImgH, 77)[0].Img
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.SearchImage(probe, 5)
	}
}

// BenchmarkAblationPrecomputedBounds compares the built bounds S-tree
// against the rule-walking modes (ablation G).
func BenchmarkAblationPrecomputedBounds(b *testing.B) {
	cfg := bench.FlagConfig()
	cfg.Queries = 30
	cfg.Name = "flag-bench-cache"
	corpus := corpusFor(b, cfg)
	db, err := corpus.BuildDBAt(cfg.Edited)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	// One untimed pass pays the lazy S-tree build.
	if _, _, err := corpus.RunWorkload(db, core.ModeIndexed); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []core.Mode{core.ModeRBM, core.ModeBWM, core.ModeIndexed} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := corpus.RunWorkload(db, mode); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPagedRange prices a page of a range answer (EXPERIMENTS.md,
// "Paged evaluation"): limit 1 / 20 / 200, a limit no answer can fill (the
// scan judges every candidate and stops nowhere) and the unlimited query,
// for a broad text whose matches start at id 1 and a selective one whose
// first match lies past every binary image, under RBM and BWM — and the
// S-tree descent (indexed) on the page of 20 and the unlimited query, the
// arms a user picks it for. Between the two texts, a medium band and a
// narrow at-least text time the selectivities at which the work ledger's
// index probes pin the S-tree's node visits. The corpus is paper_mix's
// shape at a quarter of its size: 1 000 flags, then 4 000 scripts.
// nodes/op and leaves/op are the S-tree nodes visited and leaf boxes
// checked per query, 0 for a scan.
func BenchmarkPagedRange(b *testing.B) {
	db, _, _ := paperMixDB(b, 1000)
	ctx := context.Background()
	const unfillable = 1 << 20
	for _, text := range []struct{ name, q string }{
		{"broad", "at least 10% red"},
		{"medium", "between 5% and 50% white"},
		{"narrow", "at least 60% blue"},
		{"selective", "at least 90% crimson"},
	} {
		for _, mode := range []core.Mode{core.ModeRBM, core.ModeBWM, core.ModeIndexed} {
			for _, limit := range []int{1, 20, 200, unfillable, 0} {
				if mode == core.ModeIndexed && limit != 20 && limit != 0 {
					continue
				}
				name := fmt.Sprintf("limit=%d", limit)
				switch limit {
				case unfillable:
					name = "limit=unfillable"
				case 0:
					name = "unlimited"
				}
				b.Run(fmt.Sprintf("%s/%s/%s", text.name, mode, name), func(b *testing.B) {
					// One traced pass outside the timer (it also pays the
					// lazy S-tree build): the counts repeat exactly.
					tr := mmdb.NewTrace()
					if _, err := db.RangeQueryTextCtx(ctx, text.q, mode, core.WithLimit(limit), core.WithTrace(tr)); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					var examined, returned int
					for i := 0; i < b.N; i++ {
						res, err := db.RangeQueryTextCtx(ctx, text.q, mode, core.WithLimit(limit))
						if err != nil {
							b.Fatal(err)
						}
						examined = res.Stats.BinariesChecked + res.Stats.EditedWalked + res.Stats.EditedSkipped
						returned = len(res.IDs)
					}
					b.ReportMetric(float64(examined), "candidates/op")
					b.ReportMetric(float64(returned), "ids/op")
					b.ReportMetric(float64(tr.Get(obs.TIndexNodesVisited)), "nodes/op")
					b.ReportMetric(float64(tr.Get(obs.TIndexLeafChecks)), "leaves/op")
				})
			}
		}
	}
}

// BenchmarkIndexedLeaves prices the S-tree descent where a leaf is decided
// in one call from its columns (DESIGN §15, *Query descent*): unlimited
// indexed colour-family queries over the default quantizer's sky (8
// bins), blue (4) and white (1) families, and a compound text, on the
// corpus BenchmarkPagedRange uses (1 000 flags, then 4 000 scripts).
// nodes/op and leaves/op are the S-tree nodes visited and leaf boxes
// checked per query; ids/op the answer's length.
func BenchmarkIndexedLeaves(b *testing.B) {
	db, _, _ := paperMixDB(b, 1000)
	ctx := context.Background()
	type row struct {
		name string
		run  func(opts ...core.QueryOption) (*rbm.Result, error)
	}
	rows := []row{{"compound", func(opts ...core.QueryOption) (*rbm.Result, error) {
		return db.CompoundQueryTextCtx(ctx, "at least 10% red and at most 40% white", opts...)
	}}}
	for _, family := range []string{"sky", "blue", "white"} {
		// The family is resolved once, as a client of /v1/multirange does:
		// resolving it samples the colour cube, which is not the descent.
		bins, err := colorspace.FamilyForName(family, db.Quantizer())
		if err != nil {
			b.Fatal(err)
		}
		q := query.MultiRange{Bins: bins, PctMin: 0.1, PctMax: 1}
		rows = append(rows, row{"family=" + family, func(opts ...core.QueryOption) (*rbm.Result, error) {
			return db.RangeQueryMultiCtx(ctx, q, opts...)
		}})
	}
	for _, row := range rows {
		b.Run(row.name+"/indexed/unlimited", func(b *testing.B) {
			// One traced pass outside the timer (it also pays the lazy
			// S-tree build): the counts repeat exactly.
			tr := mmdb.NewTrace()
			res, err := row.run(core.ModeIndexed, core.WithTrace(tr))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := row.run(core.ModeIndexed); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.IDs)), "ids/op")
			b.ReportMetric(float64(tr.Get(obs.TIndexNodesVisited)), "nodes/op")
			b.ReportMetric(float64(tr.Get(obs.TIndexLeafChecks)), "leaves/op")
		})
	}
}

// paperMixDB loads an in-memory database with the benchmark harness's
// paper_mix shape at the given number of bases: 48×32 flags, then 4 scripts
// per base (5 ops, 30 % non-widening, Merge targets among earlier bases).
// Returns the flags and their ids so callers can generate more scripts.
func paperMixDB(b *testing.B, bases int) (*core.DB, []dataset.NamedImage, []uint64) {
	b.Helper()
	ctx := context.Background()
	db, err := core.Open(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	flags := dataset.Flags(bases, 48, 32, 1)
	ids := make([]uint64, len(flags))
	for i, f := range flags {
		if ids[i], err = db.InsertImageCtx(ctx, 0, f.Name, f.Img); err != nil {
			b.Fatal(err)
		}
	}
	aug := dataset.NewAugmenter(dataset.AugmentConfig{PerBase: 4, OpsPerImage: 5, NonWideningFrac: 0.3, Seed: 1})
	for i, f := range flags {
		for _, seq := range aug.ScriptsFor(ids[i], f.Img, ids[:i]) {
			if _, err := db.InsertEditedCtx(ctx, 0, f.Name+"-edit", seq); err != nil {
				b.Fatal(err)
			}
		}
	}
	return db, flags, ids
}

// BenchmarkKNNProbe is k-NN (k=10, L1) at paper_mix's full shape — 4 000
// bases, 16 000 scripts — for the two kinds of probe that behave
// differently. A stored base ties with its duplicates at distance 0, so the
// (dist, id) rule prunes every edited image unrendered; an instantiated
// edited image whose k-th distance is above zero does not tie, and every
// edited box that contains the probe (lb = 0, ~40 % of them) must be
// rendered whatever the visiting order — the case BENCHMARK.json has no
// workload for. inst/op is edited images instantiated per query, nodes/op
// S-tree nodes visited, leaves/op leaf boxes checked.
func BenchmarkKNNProbe(b *testing.B) {
	db, flags, _ := paperMixDB(b, 4000)
	const probes = 16
	q := db.Quantizer()
	edited := db.EditedIDs()
	ctx := context.Background()
	stored := make([]*histogram.Histogram, probes)
	for i := range stored {
		stored[i] = histogram.Extract(flags[i*len(flags)/probes].Img, q)
	}
	// An edit can instantiate to a histogram ten stored objects share; such
	// a probe ties like a base does. Keep the ones whose k-th distance is
	// positive.
	var rendered []*histogram.Histogram
	for i := 0; i < len(edited) && len(rendered) < probes; i += len(edited)/(2*probes) + 1 {
		img, err := db.Image(edited[i])
		if err != nil {
			b.Fatal(err)
		}
		target := histogram.Extract(img, q)
		ms, _, err := db.KNNCtx(ctx, query.KNN{Target: target, K: 10, Metric: query.MetricL1})
		if err != nil {
			b.Fatal(err)
		}
		if ms[len(ms)-1].Dist > 0 {
			rendered = append(rendered, target)
		}
	}
	for _, kind := range []struct {
		name   string
		probes []*histogram.Histogram
	}{{"stored", stored}, {"edited", rendered}} {
		b.Run(kind.name, func(b *testing.B) {
			// One traced pass outside the timer: the counts repeat exactly.
			var inst, nodes, leaves int64
			for _, target := range kind.probes {
				tr := mmdb.NewTrace()
				_, st, err := db.KNNCtx(ctx, query.KNN{Target: target, K: 10, Metric: query.MetricL1}, core.WithTrace(tr))
				if err != nil {
					b.Fatal(err)
				}
				inst += int64(st.EditedInstantiated)
				nodes += tr.Get(obs.TIndexNodesVisited)
				leaves += tr.Get(obs.TIndexLeafChecks)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := db.KNNCtx(ctx, query.KNN{Target: kind.probes[i%len(kind.probes)], K: 10, Metric: query.MetricL1}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(inst)/float64(len(kind.probes)), "inst/op")
			b.ReportMetric(float64(nodes)/float64(len(kind.probes)), "nodes/op")
			b.ReportMetric(float64(leaves)/float64(len(kind.probes)), "leaves/op")
		})
	}
}

// BenchmarkInsertEdited prices the write-side consequence of serving k-NN
// from the tree: a database that has answered one similarity (or indexed)
// query maintains the S-tree on every write — one BoundsAll walk and a leaf
// insert per edited image — where one that never has pays nothing.
func BenchmarkInsertEdited(b *testing.B) {
	ctx := context.Background()
	for _, ready := range []bool{true, false} {
		name := "tree-absent"
		if ready {
			name = "tree-ready"
		}
		b.Run(name, func(b *testing.B) {
			db, flags, ids := paperMixDB(b, 1000)
			if ready {
				target := histogram.Extract(flags[0].Img, db.Quantizer())
				if _, _, err := db.KNNCtx(ctx, query.KNN{Target: target, K: 10, Metric: query.MetricL1}); err != nil {
					b.Fatal(err)
				}
			}
			aug := dataset.NewAugmenter(dataset.AugmentConfig{PerBase: 4, OpsPerImage: 5, NonWideningFrac: 0.3, Seed: 2})
			var seqs []*editops.Sequence
			for i, f := range flags[:256] {
				seqs = append(seqs, aug.ScriptsFor(ids[i], f.Img, ids[:i])...)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.InsertEditedCtx(ctx, 0, "late", seqs[i%len(seqs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
