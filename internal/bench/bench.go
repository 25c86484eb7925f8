// Package bench is the experiment harness: it rebuilds the paper's two
// evaluation data sets at Table 2-scale parameters, sweeps the percentage
// of images stored as editing operations, and regenerates every table and
// figure of the evaluation section (plus the ablations and extensions
// DESIGN.md calls out). The cmd/benchfig binary and the repository's
// bench_test.go both drive this package.
package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/colorspace"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/editops"
	"repro/internal/imaging"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rbm"
	"repro/internal/rules"
)

// Kind selects the evaluation data set.
type Kind string

// The two data sets of the paper's §5 plus the road-sign set from its
// introduction.
const (
	KindHelmet   Kind = "helmet"
	KindFlag     Kind = "flag"
	KindRoadSign Kind = "roadsign"
)

// Config describes one experiment family: the corpus composition (the
// paper's Table 2) and the query workload.
type Config struct {
	Name string
	Kind Kind
	// Originals is the number of source images (always stored binary).
	Originals int
	// Edited is the number of derived edited images in the corpus.
	Edited int
	// NonWidening is how many of the Edited images contain a
	// non-bound-widening operation (a target Merge).
	NonWidening int
	// ImgW, ImgH are raster dimensions.
	ImgW, ImgH int
	// OpsPerImage is the average operations per editing script.
	OpsPerImage int
	// Queries is the range-query workload size.
	Queries int
	// Colors restricts the workload's color vocabulary to the data set's
	// palette; empty means all named colors.
	Colors []string
	// Repetitions is how many times the workload runs per timing sample.
	Repetitions int
	// Seed fixes corpus and workload generation.
	Seed int64
}

// Total returns the corpus size (originals + edited derivatives).
func (c Config) Total() int { return c.Originals + c.Edited }

// HelmetConfig is the default helmet corpus (Figure 3): a small collection
// with a high widening-only share, which is what gives BWM its larger
// advantage on this data set.
func HelmetConfig() Config {
	return Config{
		Name:        "helmet",
		Kind:        KindHelmet,
		Originals:   25,
		Edited:      92,
		NonWidening: 14,
		ImgW:        48, ImgH: 36,
		OpsPerImage: 6,
		Queries:     80,
		Repetitions: 5,
		Colors: []string{
			"maroon", "navy", "orange", "green", "white", "gold", "black",
			"red", "teal", "silver", "gray", "purple", "sky",
		},
		Seed: 1,
	}
}

// FlagConfig is the default flag corpus (Figure 4): larger, with a bigger
// non-widening share, so BWM's advantage is smaller than on helmets.
func FlagConfig() Config {
	return Config{
		Name:        "flag",
		Kind:        KindFlag,
		Originals:   60,
		Edited:      200,
		NonWidening: 70,
		ImgW:        48, ImgH: 32,
		OpsPerImage: 5,
		Queries:     80,
		Repetitions: 5,
		Colors: []string{
			"red", "white", "blue", "green", "yellow", "gold", "orange",
			"navy", "black", "sky",
		},
		Seed: 2,
	}
}

// Corpus is a fully generated experiment input: original rasters plus the
// fixed pool of editing scripts, ordered widening-first. The sweep then
// decides how many scripts are stored as sequences versus materialized.
type Corpus struct {
	Config    Config
	Originals []dataset.NamedImage
	// Scripts[i] edits Originals[ScriptBase[i]]. Widening scripts come
	// first: the system stores widening-only images as sequences
	// preferentially, because they remain cheap to query under BWM — and
	// this ordering is what produces the paper's narrowing-gap trend as
	// the sequence percentage grows past the widening pool.
	Scripts    []*editops.Sequence
	ScriptBase []int
	// WideningCount is how many leading scripts are widening-only.
	WideningCount int
	Workload      []query.Range
}

// generate builds the originals for a kind.
func generate(kind Kind, n, w, h int, seed int64) ([]dataset.NamedImage, error) {
	switch kind {
	case KindHelmet:
		return dataset.Helmets(n, w, h, seed), nil
	case KindFlag:
		return dataset.Flags(n, w, h, seed), nil
	case KindRoadSign:
		return dataset.RoadSigns(n, w, h, seed), nil
	default:
		return nil, fmt.Errorf("bench: unknown data set kind %q", kind)
	}
}

// BuildCorpus generates the originals, the fixed script pool and the query
// workload for a configuration.
func BuildCorpus(cfg Config) (*Corpus, error) {
	if cfg.NonWidening > cfg.Edited {
		return nil, fmt.Errorf("bench: non-widening %d exceeds edited %d", cfg.NonWidening, cfg.Edited)
	}
	originals, err := generate(cfg.Kind, cfg.Originals, cfg.ImgW, cfg.ImgH, cfg.Seed)
	if err != nil {
		return nil, err
	}
	c := &Corpus{Config: cfg, Originals: originals}

	// Script generation: base ids here are 1..Originals in insertion
	// order; BuildDBAt inserts originals first so these ids hold.
	widening := dataset.NewAugmenter(dataset.AugmentConfig{
		PerBase: 1, OpsPerImage: cfg.OpsPerImage, NonWideningFrac: 0, Seed: cfg.Seed + 10,
	})
	nonWidening := dataset.NewAugmenter(dataset.AugmentConfig{
		PerBase: 1, OpsPerImage: cfg.OpsPerImage, NonWideningFrac: 1, Seed: cfg.Seed + 20,
	})
	rng := rand.New(rand.NewSource(cfg.Seed + 30))
	allBases := make([]uint64, cfg.Originals)
	for i := range allBases {
		allBases[i] = uint64(i + 1)
	}
	others := func(baseIdx int) []uint64 {
		out := make([]uint64, 0, len(allBases)-1)
		for i, id := range allBases {
			if i != baseIdx {
				out = append(out, id)
			}
		}
		return out
	}
	emit := func(aug *dataset.Augmenter, count int, wantWidening bool) {
		for i := 0; i < count; i++ {
			baseIdx := rng.Intn(cfg.Originals)
			img := originals[baseIdx].Img
			var seq *editops.Sequence
			// Regenerate until the classification matches the quota; the
			// augmenter almost always gets it right on the first try.
			for attempt := 0; attempt < 20; attempt++ {
				seq = aug.ScriptsFor(uint64(baseIdx+1), img, others(baseIdx))[0]
				if rules.SequenceIsWideningFor(seq.Ops, img.W, img.H) == wantWidening {
					break
				}
			}
			c.Scripts = append(c.Scripts, seq)
			c.ScriptBase = append(c.ScriptBase, baseIdx)
		}
	}
	emit(widening, cfg.Edited-cfg.NonWidening, true)
	c.WideningCount = len(c.Scripts)
	emit(nonWidening, cfg.NonWidening, false)

	c.Workload, err = dataset.RangeWorkload(dataset.WorkloadConfig{
		Queries: cfg.Queries, Colors: cfg.Colors, Seed: cfg.Seed + 40,
	}, defaultQuantizer)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// defaultQuantizer is the 64-bin uniform RGB quantizer every experiment
// runs under, matching the database default.
var defaultQuantizer = colorspace.NewUniformRGB(4)

// BuildDBAt constructs the database for one sweep point: the first
// seqCount scripts are stored as editing-operation sequences; the rest are
// materialized (instantiated and inserted as binary images). Originals are
// always binary.
func (c *Corpus) BuildDBAt(seqCount int) (*core.DB, error) {
	ctx := context.Background()
	if seqCount < 0 || seqCount > len(c.Scripts) {
		return nil, fmt.Errorf("bench: seqCount %d outside [0,%d]", seqCount, len(c.Scripts))
	}
	db, err := core.Open(core.Config{Quantizer: defaultQuantizer})
	if err != nil {
		return nil, err
	}
	for _, o := range c.Originals {
		if _, err := db.InsertImageCtx(ctx, 0, o.Name, o.Img); err != nil {
			db.Close()
			return nil, err
		}
	}
	env := &editops.Env{ResolveImage: func(id uint64) (*imaging.Image, error) {
		return c.Originals[id-1].Img, nil
	}}
	for i, seq := range c.Scripts {
		if i < seqCount {
			if _, err := db.InsertEditedCtx(ctx, 0, fmt.Sprintf("%s-seq-%d", c.Config.Name, i), seq); err != nil {
				db.Close()
				return nil, err
			}
			continue
		}
		img, err := editops.Apply(c.Originals[c.ScriptBase[i]].Img, seq.Ops, env)
		if err != nil {
			db.Close()
			return nil, err
		}
		if img.Size() == 0 {
			// A degenerate script (possible but rare); keep corpus size by
			// storing the base again.
			img = c.Originals[c.ScriptBase[i]].Img
		}
		if _, err := db.InsertImageCtx(ctx, 0, fmt.Sprintf("%s-mat-%d", c.Config.Name, i), img); err != nil {
			db.Close()
			return nil, err
		}
	}
	return db, nil
}

// RunWorkload executes the corpus workload against a database in a mode,
// returning total wall time and accumulated query statistics. Counters
// holds the run's delta of the process metrics registry (rules evaluated,
// fast-path admissions, cache traffic, ...); it is a process-wide delta, so
// concurrent activity in other goroutines bleeds into it.
func (c *Corpus) RunWorkload(db *core.DB, mode core.Mode) (time.Duration, QueryTotals, error) {
	var totals QueryTotals
	before := obs.Default().SnapshotCounters()
	start := time.Now()
	for _, q := range c.Workload {
		res, err := db.RangeQueryCtx(context.Background(), q, mode)
		if err != nil {
			return 0, totals, err
		}
		totals.Results += len(res.IDs)
		totals.Add(res.Stats)
	}
	elapsed := time.Since(start)
	totals.Counters = obs.DiffCounters(before, obs.Default().SnapshotCounters())
	return elapsed, totals, nil
}

// QueryTotals accumulates per-query statistics across a workload.
type QueryTotals struct {
	Results int
	// Stats sums the queries' evaluation statistics.
	rbm.Stats
	// Counters is the process metrics registry delta over the run.
	Counters map[string]int64
}

// timeWorkload runs the workload Repetitions times and returns the minimum
// duration (least-noise estimator) plus one set of totals.
func (c *Corpus) timeWorkload(db *core.DB, mode core.Mode) (time.Duration, QueryTotals, error) {
	reps := c.Config.Repetitions
	if reps < 1 {
		reps = 1
	}
	var best time.Duration
	var totals QueryTotals
	for r := 0; r < reps; r++ {
		d, tot, err := c.RunWorkload(db, mode)
		if err != nil {
			return 0, totals, err
		}
		if r == 0 || d < best {
			best = d
		}
		totals = tot
	}
	return best, totals, nil
}

// timePair times RBM and BWM with interleaved repetitions (one warmup pass
// each, then alternating measured passes, taking each mode's minimum), so
// environmental drift — GC pauses, frequency scaling — hits both methods
// symmetrically.
func (c *Corpus) timePair(db *core.DB) (rbm, bwm time.Duration, rbmTot, bwmTot QueryTotals, err error) {
	reps := c.Config.Repetitions
	if reps < 1 {
		reps = 1
	}
	if _, _, err = c.RunWorkload(db, core.ModeRBM); err != nil {
		return
	}
	if _, _, err = c.RunWorkload(db, core.ModeBWM); err != nil {
		return
	}
	for r := 0; r < reps; r++ {
		var d time.Duration
		d, rbmTot, err = c.RunWorkload(db, core.ModeRBM)
		if err != nil {
			return
		}
		if r == 0 || d < rbm {
			rbm = d
		}
		d, bwmTot, err = c.RunWorkload(db, core.ModeBWM)
		if err != nil {
			return
		}
		if r == 0 || d < bwm {
			bwm = d
		}
	}
	return
}
