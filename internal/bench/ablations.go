package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/colorspace"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/editops"
	"repro/internal/histogram"
	"repro/internal/query"
)

// Ablation A — widening fraction. The paper attributes the shrinking BWM
// advantage to edited images with non-bound-widening operations; this
// ablation sweeps the non-widening share directly at a fixed sequence
// percentage.

// WideningPoint is one ablation-A sample.
type WideningPoint struct {
	NonWideningPct float64
	RBM, BWM       time.Duration
	ReductionPct   float64
}

// RunAblationWidening sweeps the non-widening share of the edited corpus.
func RunAblationWidening(cfg Config, fractions []float64) ([]WideningPoint, error) {
	var out []WideningPoint
	for _, frac := range fractions {
		c := cfg
		c.NonWidening = int(frac * float64(cfg.Edited))
		c.Name = fmt.Sprintf("%s-nw%.0f", cfg.Name, frac*100)
		corpus, err := BuildCorpus(c)
		if err != nil {
			return nil, err
		}
		db, err := corpus.BuildDBAt(c.Edited)
		if err != nil {
			return nil, err
		}
		rbmTime, bwmTime, _, _, err := corpus.timePair(db)
		db.Close()
		if err != nil {
			return nil, err
		}
		p := WideningPoint{NonWideningPct: frac * 100, RBM: rbmTime, BWM: bwmTime}
		if rbmTime > 0 {
			p.ReductionPct = 100 * float64(rbmTime-bwmTime) / float64(rbmTime)
		}
		out = append(out, p)
	}
	return out, nil
}

// WriteAblationWidening prints ablation A.
func WriteAblationWidening(w io.Writer, points []WideningPoint) {
	fmt.Fprintln(w, "Ablation A — BWM advantage vs non-widening share of edited images")
	fmt.Fprintf(w, "%14s %14s %14s %10s\n", "non-widening%", "RBM", "BWM", "reduction")
	for _, p := range points {
		fmt.Fprintf(w, "%13.0f%% %14s %14s %9.2f%%\n",
			p.NonWideningPct, p.RBM.Round(time.Microsecond), p.BWM.Round(time.Microsecond), p.ReductionPct)
	}
}

// Ablation B — operations per image. Rule evaluation cost scales with
// sequence length; BWM's savings grow with it.

// OpsPoint is one ablation-B sample.
type OpsPoint struct {
	OpsPerImage  int
	RBM, BWM     time.Duration
	ReductionPct float64
}

// RunAblationOps sweeps the average sequence length.
func RunAblationOps(cfg Config, opsCounts []int) ([]OpsPoint, error) {
	var out []OpsPoint
	for _, n := range opsCounts {
		c := cfg
		c.OpsPerImage = n
		c.Name = fmt.Sprintf("%s-ops%d", cfg.Name, n)
		corpus, err := BuildCorpus(c)
		if err != nil {
			return nil, err
		}
		db, err := corpus.BuildDBAt(c.Edited)
		if err != nil {
			return nil, err
		}
		rbmTime, bwmTime, _, _, err := corpus.timePair(db)
		db.Close()
		if err != nil {
			return nil, err
		}
		p := OpsPoint{OpsPerImage: n, RBM: rbmTime, BWM: bwmTime}
		if rbmTime > 0 {
			p.ReductionPct = 100 * float64(rbmTime-bwmTime) / float64(rbmTime)
		}
		out = append(out, p)
	}
	return out, nil
}

// WriteAblationOps prints ablation B.
func WriteAblationOps(w io.Writer, points []OpsPoint) {
	fmt.Fprintln(w, "Ablation B — BWM advantage vs operations per edited image")
	fmt.Fprintf(w, "%10s %14s %14s %10s\n", "ops/image", "RBM", "BWM", "reduction")
	for _, p := range points {
		fmt.Fprintf(w, "%10d %14s %14s %9.2f%%\n",
			p.OpsPerImage, p.RBM.Round(time.Microsecond), p.BWM.Round(time.Microsecond), p.ReductionPct)
	}
}

// Ablation C — the instantiation baseline the paper's §3 dismisses
// ("instantiation is an expensive process ... it should be avoided").

// BaselineResult compares instantiation with the paper's two methods on one
// database.
type BaselineResult struct {
	Config      Config
	Instantiate time.Duration
	RBM         time.Duration
	BWM         time.Duration
}

// RunBaseline times every mode at full sequence storage.
func RunBaseline(cfg Config) (*BaselineResult, error) {
	corpus, err := BuildCorpus(cfg)
	if err != nil {
		return nil, err
	}
	db, err := corpus.BuildDBAt(cfg.Edited)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	res := &BaselineResult{Config: cfg}
	for _, m := range []struct {
		mode core.Mode
		dst  *time.Duration
	}{
		{core.ModeInstantiate, &res.Instantiate},
		{core.ModeRBM, &res.RBM},
		{core.ModeBWM, &res.BWM},
	} {
		d, _, err := corpus.timeWorkload(db, m.mode)
		if err != nil {
			return nil, err
		}
		*m.dst = d
	}
	return res, nil
}

// WriteBaseline prints ablation C.
func WriteBaseline(w io.Writer, r *BaselineResult) {
	fmt.Fprintf(w, "Ablation C — execution modes on the %s corpus (all edited images as sequences)\n", r.Config.Name)
	fmt.Fprintf(w, "%-14s %14s %10s\n", "mode", "time", "vs BWM")
	rows := []struct {
		name string
		d    time.Duration
	}{
		{"instantiate", r.Instantiate},
		{"rbm", r.RBM},
		{"bwm", r.BWM},
	}
	for _, row := range rows {
		ratio := float64(row.d) / float64(r.BWM)
		fmt.Fprintf(w, "%-14s %14s %9.1fx\n", row.name, row.d.Round(time.Microsecond), ratio)
	}
}

// Extension D — k-NN with bound-based pruning versus exhaustive
// instantiation (the paper's future-work query type).

// KNNResult compares pruned and exhaustive k-NN.
type KNNResult struct {
	Config             Config
	K                  int
	Pruned, Exhaustive time.Duration
	EditedPruned       int
	EditedTotal        int
}

// RunKNNExtension times QueryByExample-style searches with and without the
// bounds pruning (exhaustive = prune disabled by scoring through
// ModeInstantiate-style materialization).
func RunKNNExtension(cfg Config, k, probes int) (*KNNResult, error) {
	corpus, err := BuildCorpus(cfg)
	if err != nil {
		return nil, err
	}
	db, err := corpus.BuildDBAt(cfg.Edited)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	probeImgs, err := generate(cfg.Kind, probes, cfg.ImgW, cfg.ImgH, cfg.Seed+99)
	if err != nil {
		return nil, err
	}
	res := &KNNResult{Config: cfg, K: k, EditedTotal: len(db.EditedIDs()) * probes}

	start := time.Now()
	for _, p := range probeImgs {
		target := histogram.Extract(p.Img, defaultQuantizer)
		_, st, err := db.KNNCtx(context.Background(), query.KNN{Target: target, K: k, Metric: query.MetricL1})
		if err != nil {
			return nil, err
		}
		res.EditedPruned += st.EditedPruned
	}
	res.Pruned = time.Since(start)

	// Exhaustive: materialize every object, rank exactly, keep the best k.
	start = time.Now()
	for _, p := range probeImgs {
		target := histogram.Extract(p.Img, defaultQuantizer)
		ids := append(db.Binaries(), db.EditedIDs()...)
		dists := make([]float64, 0, len(ids))
		for _, id := range ids {
			img, err := db.Image(id)
			if err != nil {
				return nil, err
			}
			if img.Size() == 0 {
				continue
			}
			h := histogram.Extract(img, defaultQuantizer)
			dists = append(dists, query.MetricL1.Distance(target, h))
		}
		sort.Float64s(dists)
		if len(dists) > k {
			dists = dists[:k]
		}
		_ = dists
	}
	res.Exhaustive = time.Since(start)
	return res, nil
}

// WriteKNN prints extension D.
func WriteKNN(w io.Writer, r *KNNResult) {
	fmt.Fprintf(w, "Extension D — k-NN (k=%d) on the %s corpus\n", r.K, r.Config.Name)
	fmt.Fprintf(w, "%-22s %14s\n", "strategy", "time")
	fmt.Fprintf(w, "%-22s %14s\n", "bound-pruned", r.Pruned.Round(time.Microsecond))
	fmt.Fprintf(w, "%-22s %14s\n", "exhaustive", r.Exhaustive.Round(time.Microsecond))
	fmt.Fprintf(w, "edited images pruned: %d of %d (%.1f%%)\n",
		r.EditedPruned, r.EditedTotal, 100*float64(r.EditedPruned)/float64(max(1, r.EditedTotal)))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Extension F — BIC versus global histogram retrieval quality. Probes are
// edited versions of stored originals (blur / recolor / crop); each
// signature scheme ranks the binary images and we record where the true
// original lands. BIC's structure awareness should not lose to the global
// histogram on these structured data sets.

// BICResult compares the two signature schemes.
type BICResult struct {
	Config Config
	Probes int
	// Recall1 is the fraction of probes whose original ranked first.
	HistRecall1, BICRecall1 float64
	// MeanRank is the average rank (1-based) of the original.
	HistMeanRank, BICMeanRank float64
}

// RunBICExtension builds the corpus originals, derives one edited probe per
// original, and compares retrieval quality.
func RunBICExtension(cfg Config) (*BICResult, error) {
	corpus, err := BuildCorpus(cfg)
	if err != nil {
		return nil, err
	}
	db, err := corpus.BuildDBAt(0) // only rasters needed
	if err != nil {
		return nil, err
	}
	defer db.Close()

	bicIdx, err := db.BICIndex()
	if err != nil {
		return nil, err
	}
	aug := dataset.NewAugmenter(dataset.AugmentConfig{PerBase: 1, OpsPerImage: 2, Seed: cfg.Seed + 77})
	res := &BICResult{Config: cfg}
	binaries := db.Binaries()

	for i, orig := range corpus.Originals {
		wantID := binaries[i]
		script := aug.ScriptsFor(wantID, orig.Img, nil)[0]
		probe, err := editops.Apply(orig.Img, script.Ops, &editops.Env{})
		if err != nil || probe.Size() == 0 {
			continue
		}
		res.Probes++

		// Global histogram ranking.
		target := histogram.Extract(probe, defaultQuantizer)
		matches, err := db.KNNBinary(query.KNN{Target: target, K: len(binaries), Metric: query.MetricL1})
		if err != nil {
			return nil, err
		}
		res.HistMeanRank += float64(rankOf(matchIDs(matches), wantID))

		// BIC ranking.
		bicMatches := bicIdx.SearchImage(probe, len(binaries))
		ids := make([]uint64, len(bicMatches))
		for j, m := range bicMatches {
			ids[j] = m.ID
		}
		res.BICMeanRank += float64(rankOf(ids, wantID))

		if len(matches) > 0 && matches[0].ID == wantID {
			res.HistRecall1++
		}
		if len(bicMatches) > 0 && bicMatches[0].ID == wantID {
			res.BICRecall1++
		}
	}
	if res.Probes > 0 {
		n := float64(res.Probes)
		res.HistRecall1 /= n
		res.BICRecall1 /= n
		res.HistMeanRank /= n
		res.BICMeanRank /= n
	}
	return res, nil
}

func matchIDs(ms []core.Match) []uint64 {
	out := make([]uint64, len(ms))
	for i, m := range ms {
		out[i] = m.ID
	}
	return out
}

// rankOf returns the 1-based position of id, or len(ids)+1 if absent.
func rankOf(ids []uint64, id uint64) int {
	for i, v := range ids {
		if v == id {
			return i + 1
		}
	}
	return len(ids) + 1
}

// WriteBIC prints extension F.
func WriteBIC(w io.Writer, r *BICResult) {
	fmt.Fprintf(w, "Extension F — signature quality on edited probes (%s corpus, %d probes)\n", r.Config.Name, r.Probes)
	fmt.Fprintf(w, "%-20s %10s %10s\n", "signature", "recall@1", "mean rank")
	fmt.Fprintf(w, "%-20s %9.1f%% %10.2f\n", "global histogram", 100*r.HistRecall1, r.HistMeanRank)
	fmt.Fprintf(w, "%-20s %9.1f%% %10.2f\n", "BIC (dLog)", 100*r.BICRecall1, r.BICMeanRank)
}

// Ablation G — precomputed bounds. The opposite end of the design space
// from BWM: pay memory (bins × candidates) and a build pass of one rule walk
// per edited image to answer every later query from stored bound vectors.
// ModeIndexed is that design point — the S-tree leaves are the one store of
// per-candidate bounds. Quantifies what the paper's approach gives up versus
// what it saves.

// CachedResult compares the two rule-walking strategies with the
// precomputed-bounds one.
type CachedResult struct {
	Config  Config
	RBM     time.Duration
	BWM     time.Duration
	Indexed time.Duration
	// BuildTime is the first indexed query: the lazy S-tree bulk build plus
	// that query's descent.
	BuildTime time.Duration
	// Items is the number of boxes the tree holds; Bytes the size of its
	// bounds vectors at items × bins × 24 B (three ints per bin).
	Items int
	Bytes int64
}

// RunCachedAblation times RBM vs BWM vs the built S-tree.
func RunCachedAblation(cfg Config) (*CachedResult, error) {
	corpus, err := BuildCorpus(cfg)
	if err != nil {
		return nil, err
	}
	db, err := corpus.BuildDBAt(cfg.Edited)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	res := &CachedResult{Config: cfg}

	start := time.Now()
	if _, err := db.RangeQueryCtx(context.Background(), query.Range{Bin: 0, PctMin: 0, PctMax: 1}, core.ModeIndexed); err != nil {
		return nil, err
	}
	res.BuildTime = time.Since(start)
	_, res.Items, _ = db.SearchIndexStats()
	res.Bytes = int64(res.Items) * int64(db.Quantizer().Bins()) * 24

	for _, m := range []struct {
		mode core.Mode
		dst  *time.Duration
	}{
		{core.ModeRBM, &res.RBM},
		{core.ModeBWM, &res.BWM},
		{core.ModeIndexed, &res.Indexed},
	} {
		d, _, err := corpus.timeWorkload(db, m.mode)
		if err != nil {
			return nil, err
		}
		*m.dst = d
	}
	return res, nil
}

// WriteCached prints ablation G.
func WriteCached(w io.Writer, r *CachedResult) {
	fmt.Fprintf(w, "Ablation G — precomputed bounds (%s corpus)\n", r.Config.Name)
	fmt.Fprintf(w, "%-16s %14s\n", "rbm", r.RBM.Round(time.Microsecond))
	fmt.Fprintf(w, "%-16s %14s\n", "bwm", r.BWM.Round(time.Microsecond))
	fmt.Fprintf(w, "%-16s %14s\n", "indexed", r.Indexed.Round(time.Microsecond))
	fmt.Fprintf(w, "index: %d items, %d bytes of bounds, %s first-query build\n",
		r.Items, r.Bytes, r.BuildTime.Round(time.Microsecond))
}

// Ablation H — the sequence optimizer. Augmentation scripts carry dead
// operations (redundant Defines, no-op edits); optimizing them at insert
// shrinks both storage and the per-query rule walk. This ablation measures
// how much on a full corpus.

// OptimizeResult reports the optimizer's effect.
type OptimizeResult struct {
	Config      Config
	OpsBefore   int
	OpsAfter    int
	BytesBefore int64
	BytesAfter  int64
	RBMBefore   time.Duration
	RBMAfter    time.Duration
	// ResultsEqual reports that no query returned MORE ids on the
	// optimized corpus (optimization can only tighten bounds).
	ResultsEqual  bool
	QueriesTested int
}

// RunOptimizeAblation builds the corpus twice — verbatim scripts vs
// optimized scripts — and compares storage and RBM query time (RBM walks
// every sequence, so it shows the op-count effect most directly).
func RunOptimizeAblation(cfg Config) (*OptimizeResult, error) {
	ctx := context.Background()
	corpus, err := BuildCorpus(cfg)
	if err != nil {
		return nil, err
	}
	res := &OptimizeResult{Config: cfg, ResultsEqual: true}

	dbPlain, err := corpus.BuildDBAt(cfg.Edited)
	if err != nil {
		return nil, err
	}
	defer dbPlain.Close()

	// Optimized twin: same originals, optimized scripts.
	dbOpt, err := core.Open(core.Config{Quantizer: defaultQuantizer})
	if err != nil {
		return nil, err
	}
	defer dbOpt.Close()
	for _, o := range corpus.Originals {
		if _, err := dbOpt.InsertImageCtx(ctx, 0, o.Name, o.Img); err != nil {
			return nil, err
		}
	}
	for i, seq := range corpus.Scripts {
		img := corpus.Originals[corpus.ScriptBase[i]].Img
		opt := editops.Optimize(seq.Ops, img.W, img.H)
		res.OpsBefore += len(seq.Ops)
		res.OpsAfter += len(opt)
		res.BytesBefore += int64(len(editops.EncodeBinary(seq)))
		optSeq := &editops.Sequence{BaseID: seq.BaseID, Ops: opt}
		res.BytesAfter += int64(len(editops.EncodeBinary(optSeq)))
		if _, err := dbOpt.InsertEditedCtx(ctx, 0, fmt.Sprintf("opt-%d", i), optSeq); err != nil {
			return nil, err
		}
	}

	// Optimized results must be a subset of the verbatim results: dropping
	// a no-op operation can only TIGHTEN the conservative bounds (e.g. a
	// Modify(c→c) still widened the bin's maximum under the rule), so
	// optimization may remove false positives but never true matches.
	for _, q := range corpus.Workload {
		a, err := dbPlain.RangeQueryCtx(ctx, q, core.ModeRBM)
		if err != nil {
			return nil, err
		}
		b, err := dbOpt.RangeQueryCtx(ctx, q, core.ModeRBM)
		if err != nil {
			return nil, err
		}
		res.QueriesTested++
		if len(b.IDs) > len(a.IDs) {
			res.ResultsEqual = false
		}
	}

	d, _, err := corpus.timeWorkload(dbPlain, core.ModeRBM)
	if err != nil {
		return nil, err
	}
	res.RBMBefore = d
	d, _, err = corpus.timeWorkload(dbOpt, core.ModeRBM)
	if err != nil {
		return nil, err
	}
	res.RBMAfter = d
	return res, nil
}

// WriteOptimize prints ablation H.
func WriteOptimize(w io.Writer, r *OptimizeResult) {
	fmt.Fprintf(w, "Ablation H — sequence optimizer on the %s corpus\n", r.Config.Name)
	fmt.Fprintf(w, "%-22s %10d -> %d (%.1f%% fewer)\n", "total operations",
		r.OpsBefore, r.OpsAfter, 100*float64(r.OpsBefore-r.OpsAfter)/float64(max(1, r.OpsBefore)))
	fmt.Fprintf(w, "%-22s %10d -> %d bytes\n", "encoded scripts", r.BytesBefore, r.BytesAfter)
	fmt.Fprintf(w, "%-22s %10s -> %s\n", "RBM workload", r.RBMBefore.Round(time.Microsecond), r.RBMAfter.Round(time.Microsecond))
	fmt.Fprintf(w, "optimized ⊆ verbatim results over %d queries: %v\n", r.QueriesTested, r.ResultsEqual)
}

// Ablation I — quantizer granularity. §3.1 leaves the number of divisions
// "system-dependent"; this ablation sweeps it. Finer quantization means
// more selective bins (fewer base matches, so fewer BWM cluster skips) but
// also tighter per-bin bounds; the sweep shows where the tradeoff lands on
// this corpus.

// QuantPoint is one ablation-I sample.
type QuantPoint struct {
	Quantizer    string
	Bins         int
	RBM, BWM     time.Duration
	ReductionPct float64
	// AvgMatches is the mean result-set size per query.
	AvgMatches float64
}

// RunAblationQuantizer sweeps RGB quantizer divisions.
func RunAblationQuantizer(cfg Config, divisions []int) ([]QuantPoint, error) {
	ctx := context.Background()
	var out []QuantPoint
	for _, divs := range divisions {
		q := colorspace.NewUniformRGB(divs)
		corpus, err := BuildCorpus(cfg) // workload regenerated per quantizer below
		if err != nil {
			return nil, err
		}
		// Rebuild the workload against this quantizer's bins.
		corpus.Workload, err = dataset.RangeWorkload(dataset.WorkloadConfig{
			Queries: cfg.Queries, Colors: cfg.Colors, Seed: cfg.Seed + 40,
		}, q)
		if err != nil {
			return nil, err
		}
		db, err := core.Open(core.Config{Quantizer: q})
		if err != nil {
			return nil, err
		}
		for _, o := range corpus.Originals {
			if _, err := db.InsertImageCtx(ctx, 0, o.Name, o.Img); err != nil {
				db.Close()
				return nil, err
			}
		}
		for i, seq := range corpus.Scripts {
			if _, err := db.InsertEditedCtx(ctx, 0, fmt.Sprintf("s%d", i), seq); err != nil {
				db.Close()
				return nil, err
			}
		}
		rbmTime, bwmTime, _, bwmTot, err := corpus.timePair(db)
		if err != nil {
			db.Close()
			return nil, err
		}
		db.Close()
		p := QuantPoint{
			Quantizer:  q.Name(),
			Bins:       q.Bins(),
			RBM:        rbmTime,
			BWM:        bwmTime,
			AvgMatches: float64(bwmTot.Results) / float64(len(corpus.Workload)),
		}
		if rbmTime > 0 {
			p.ReductionPct = 100 * float64(rbmTime-bwmTime) / float64(rbmTime)
		}
		out = append(out, p)
	}
	return out, nil
}

// WriteAblationQuantizer prints ablation I.
func WriteAblationQuantizer(w io.Writer, points []QuantPoint) {
	fmt.Fprintln(w, "Ablation I — BWM advantage vs quantizer granularity")
	fmt.Fprintf(w, "%-10s %6s %14s %14s %10s %12s\n", "quantizer", "bins", "RBM", "BWM", "reduction", "avg matches")
	for _, p := range points {
		fmt.Fprintf(w, "%-10s %6d %14s %14s %9.2f%% %12.1f\n",
			p.Quantizer, p.Bins, p.RBM.Round(time.Microsecond), p.BWM.Round(time.Microsecond),
			p.ReductionPct, p.AvgMatches)
	}
}

// Scale experiment — how query time grows with corpus size, a dimension the
// paper's evaluation (fixed at ~100–260 images) leaves open. Both methods
// are linear scans over the catalog, so time should grow linearly with the
// corpus and BWM's relative advantage should hold steady.

// ScalePoint is one corpus-size sample.
type ScalePoint struct {
	Images       int
	RBM, BWM     time.Duration
	ReductionPct float64
	// PerQueryBWM is BWM time divided by the workload size.
	PerQueryBWM time.Duration
}

// RunScale sweeps corpus-size multipliers of the base configuration.
func RunScale(cfg Config, multipliers []int) ([]ScalePoint, error) {
	var out []ScalePoint
	for _, m := range multipliers {
		c := cfg
		c.Originals = cfg.Originals * m
		c.Edited = cfg.Edited * m
		c.NonWidening = cfg.NonWidening * m
		c.Name = fmt.Sprintf("%s-x%d", cfg.Name, m)
		corpus, err := BuildCorpus(c)
		if err != nil {
			return nil, err
		}
		db, err := corpus.BuildDBAt(c.Edited)
		if err != nil {
			return nil, err
		}
		rbmTime, bwmTime, _, _, err := corpus.timePair(db)
		db.Close()
		if err != nil {
			return nil, err
		}
		p := ScalePoint{Images: c.Total(), RBM: rbmTime, BWM: bwmTime}
		if rbmTime > 0 {
			p.ReductionPct = 100 * float64(rbmTime-bwmTime) / float64(rbmTime)
		}
		if len(corpus.Workload) > 0 {
			p.PerQueryBWM = bwmTime / time.Duration(len(corpus.Workload))
		}
		out = append(out, p)
	}
	return out, nil
}

// WriteScale prints the scale experiment.
func WriteScale(w io.Writer, points []ScalePoint) {
	fmt.Fprintln(w, "Scale — query time vs corpus size (all edits as sequences)")
	fmt.Fprintf(w, "%8s %14s %14s %10s %14s\n", "images", "RBM", "BWM", "reduction", "BWM/query")
	for _, p := range points {
		fmt.Fprintf(w, "%8d %14s %14s %9.2f%% %14s\n",
			p.Images, p.RBM.Round(time.Microsecond), p.BWM.Round(time.Microsecond),
			p.ReductionPct, p.PerQueryBWM.Round(time.Microsecond))
	}
}
