package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/query"
)

// S-tree index comparison. One experiment: range-query wall time for the
// linear scans (BWM, RBM) against the bounds S-tree (ModeIndexed), swept
// across corpus sizes and workload selectivities. The scans pay O(n) per
// query no matter how selective the interval is; the index descends only
// the subtrees whose union boxes overlap it, so on selective workloads its
// node-visit count — recorded here from the query trace — must stay well
// below the candidate count, and past ~10k candidates that pruning turns
// into a wall-clock win.

// IndexPoint is one (corpus size, selectivity, mode) measurement.
type IndexPoint struct {
	// Corpus is the total candidate count (binary + edited images).
	Corpus int `json:"corpus"`
	// Candidates is the same number, spelled out for the smoke gate: the
	// sublinearity assertion is nodes_visited < candidates.
	Candidates int `json:"candidates"`
	// Selectivity names the workload: "broad" ([0,1] intervals that admit
	// everything), "medium" ([0.05,0.5]) or "narrow" ([0.6,1] at-least
	// queries, the regime the index targets).
	Selectivity string `json:"selectivity"`
	// Mode is the execution strategy: "bwm", "rbm" or "indexed".
	Mode    string        `json:"mode"`
	Queries int           `json:"queries"`
	Results int           `json:"results"`
	Elapsed time.Duration `json:"elapsed_ns"`
	PerSec  float64       `json:"queries_per_sec"`
	// NodesVisited, SubtreeAdmitted and LeafChecks are the index trace
	// counters summed over one workload pass, averaged per query; zero
	// for the scan modes, which never touch the tree.
	NodesVisited    int64 `json:"nodes_visited"`
	SubtreeAdmitted int64 `json:"subtree_admitted"`
	LeafChecks      int64 `json:"leaf_checks"`
}

// IndexResult is the full experiment output.
type IndexResult struct {
	Points []IndexPoint `json:"points"`
}

// indexWorkloads are the three selectivity regimes, 30 seeded queries
// each over random bins.
func indexWorkloads(bins int, seed int64) map[string][]query.Range {
	rng := rand.New(rand.NewSource(seed))
	const n = 30
	out := map[string][]query.Range{}
	for _, wl := range []struct {
		name      string
		min, max  float64
		minSpread float64
	}{
		{"broad", 0, 1, 0},
		{"medium", 0.05, 0.5, 0},
		{"narrow", 0.6, 1, 0.2},
	} {
		qs := make([]query.Range, n)
		for i := range qs {
			lo := wl.min + rng.Float64()*wl.minSpread
			qs[i] = query.Range{Bin: rng.Intn(bins), PctMin: lo, PctMax: wl.max}
		}
		out[wl.name] = qs
	}
	return out
}

// buildIndexDB opens an in-memory database holding `candidates` images:
// mostly binary flags (distinct rasters, so their point boxes spread
// through histogram space) plus a slice of edited sequences whose interval
// boxes exercise the Partial-overlap path.
func buildIndexDB(candidates int, seed int64) (*core.DB, error) {
	ctx := context.Background()
	edited := candidates / 10
	if edited > 300 {
		edited = 300
	}
	nBase := candidates - edited
	imgs := dataset.Flags(nBase, 48, 32, seed)
	db, err := core.Open(core.Config{Quantizer: defaultQuantizer})
	if err != nil {
		return nil, err
	}
	for _, im := range imgs {
		if _, err := db.InsertImageCtx(ctx, 0, im.Name, im.Img); err != nil {
			db.Close()
			return nil, err
		}
	}
	if edited > 0 {
		perBase := 8
		aug := dataset.NewAugmenter(dataset.AugmentConfig{
			PerBase: perBase, OpsPerImage: 5, NonWideningFrac: 0.3, Seed: seed + 1,
		})
		done := 0
		for b := 0; b < nBase && done < edited; b++ {
			var others []uint64
			for o := 0; o < 4 && o < nBase; o++ {
				if o != b {
					others = append(others, uint64(o+1))
				}
			}
			for _, seq := range aug.ScriptsFor(uint64(b+1), imgs[b].Img, others) {
				if done >= edited {
					break
				}
				if _, err := db.InsertEditedCtx(ctx, 0, fmt.Sprintf("idx-edit-%d", done), seq); err != nil {
					db.Close()
					return nil, err
				}
				done++
			}
		}
	}
	return db, nil
}

// CompareIndex runs the sweep. sizes are the candidate counts; nil means
// the default {1000, 10000}. Results are published as gauges:
//
//	esidb_bench_index_query_per_sec{corpus="...",selectivity="...",mode="..."}
//	esidb_bench_index_nodes_visited{corpus="...",selectivity="..."}
func CompareIndex(sizes []int) (*IndexResult, error) {
	if len(sizes) == 0 {
		sizes = []int{1000, 10000}
	}
	res := &IndexResult{}
	for _, size := range sizes {
		if size < 10 {
			return nil, fmt.Errorf("bench: index corpus %d too small", size)
		}
		db, err := buildIndexDB(size, 0xC0FFEE+int64(size))
		if err != nil {
			return nil, fmt.Errorf("bench: index corpus %d: %w", size, err)
		}
		workloads := indexWorkloads(defaultQuantizer.Bins(), int64(size)*31)
		pts, err := timeIndexWorkloads(db, size, workloads)
		db.Close()
		if err != nil {
			return nil, fmt.Errorf("bench: index corpus %d: %w", size, err)
		}
		res.Points = append(res.Points, pts...)
	}

	reg := obs.Default()
	for _, p := range res.Points {
		label := fmt.Sprintf("{corpus=%q,selectivity=%q,mode=%q}",
			fmt.Sprint(p.Corpus), p.Selectivity, p.Mode)
		reg.Gauge("esidb_bench_index_query_per_sec" + label).Set(p.PerSec)
		if p.Mode == core.ModeIndexed.String() {
			nl := fmt.Sprintf("{corpus=%q,selectivity=%q}", fmt.Sprint(p.Corpus), p.Selectivity)
			reg.Gauge("esidb_bench_index_nodes_visited" + nl).Set(float64(p.NodesVisited))
		}
	}
	return res, nil
}

// indexBenchModes is the comparison set: both linear scans and the tree.
var indexBenchModes = []core.Mode{core.ModeBWM, core.ModeRBM, core.ModeIndexed}

// timeIndexWorkloads measures every (selectivity, mode) pair on one
// database: a warm-up pass first (which also triggers the lazy index
// build, so the build cost never pollutes a timing), then best-of-3
// timed passes, then one traced pass to collect the index counters.
func timeIndexWorkloads(db *core.DB, size int, workloads map[string][]query.Range) ([]IndexPoint, error) {
	ctx := context.Background()
	var out []IndexPoint
	for _, sel := range []string{"broad", "medium", "narrow"} {
		qs := workloads[sel]
		for _, mode := range indexBenchModes {
			results := 0
			if _, err := runIndexPass(ctx, db, qs, mode, nil); err != nil {
				return nil, err
			}
			var best time.Duration
			const reps = 3
			for r := 0; r < reps; r++ {
				start := time.Now()
				n, err := runIndexPass(ctx, db, qs, mode, nil)
				if err != nil {
					return nil, err
				}
				d := time.Since(start)
				if r == 0 || d < best {
					best = d
				}
				results = n
			}
			pt := IndexPoint{
				Corpus:      size,
				Candidates:  size,
				Selectivity: sel,
				Mode:        mode.String(),
				Queries:     len(qs),
				Results:     results,
				Elapsed:     best,
				PerSec:      float64(len(qs)) / best.Seconds(),
			}
			if mode == core.ModeIndexed {
				tr := obs.NewTrace()
				if _, err := runIndexPass(ctx, db, qs, mode, tr); err != nil {
					return nil, err
				}
				nq := int64(len(qs))
				pt.NodesVisited = tr.Get(obs.TIndexNodesVisited) / nq
				pt.SubtreeAdmitted = tr.Get(obs.TIndexSubtreeAdmitted) / nq
				pt.LeafChecks = tr.Get(obs.TIndexLeafChecks) / nq
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// runIndexPass executes one workload pass and returns the total result
// count (a cross-mode sanity anchor: all three modes must report the same
// totals, which WriteIndex surfaces side by side).
func runIndexPass(ctx context.Context, db *core.DB, qs []query.Range, mode core.Mode, tr *obs.Trace) (int, error) {
	total := 0
	for _, q := range qs {
		opts := []core.QueryOption{mode}
		if tr != nil {
			opts = append(opts, core.WithTrace(tr))
		}
		res, err := db.RangeQueryCtx(ctx, q, opts...)
		if err != nil {
			return 0, err
		}
		total += len(res.IDs)
	}
	return total, nil
}

// WriteIndex renders the comparison as a table.
func WriteIndex(w io.Writer, res *IndexResult) {
	fmt.Fprintf(w, "S-tree index vs linear scans (30 queries per workload, best of 3)\n")
	fmt.Fprintf(w, "%8s  %-11s  %-8s  %10s  %12s  %8s  %12s  %10s\n",
		"corpus", "selectivity", "mode", "results", "queries/s", "ms", "nodes/query", "leaf/query")
	for _, p := range res.Points {
		nodes, leaves := "-", "-"
		if p.Mode == core.ModeIndexed.String() {
			nodes = fmt.Sprint(p.NodesVisited)
			leaves = fmt.Sprint(p.LeafChecks)
		}
		fmt.Fprintf(w, "%8d  %-11s  %-8s  %10d  %12.0f  %8.2f  %12s  %10s\n",
			p.Corpus, p.Selectivity, p.Mode, p.Results, p.PerSec,
			float64(p.Elapsed.Nanoseconds())/1e6, nodes, leaves)
	}
}

// WriteIndexJSON emits the machine-readable document.
func WriteIndexJSON(w io.Writer, res *IndexResult) error {
	doc := struct {
		Experiment string       `json:"experiment"`
		Result     *IndexResult `json:"result"`
	}{Experiment: "index", Result: res}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
