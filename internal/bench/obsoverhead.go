package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Observability-overhead experiment: the always-on statistics recorder and
// the nil-trace span threading ride every query, so their cost is part of
// the engine's latency budget. This experiment times the same range-query
// workload three ways and reports each mode's overhead over the first:
//
//   - stats-off: recording disabled (obs.Stats.SetEnabled(false)) — the
//     bare engine, the baseline.
//   - stats-on: the production default — always-on statistics, tracing off
//     (nil trace). The CI smoke gate holds this below 3%.
//   - traced: a live span tree collected for every query (?trace=1 cost).

// ObsOverheadResult is one observability mode's timing point.
type ObsOverheadResult struct {
	// Mode is "stats-off", "stats-on", or "traced".
	Mode string `json:"mode"`
	// Queries is the workload size per repetition.
	Queries int `json:"queries"`
	// Elapsed is the best (minimum) workload wall time across repetitions.
	Elapsed time.Duration `json:"elapsed_ns"`
	// OverheadPct is this mode's slowdown over stats-off in percent
	// (0 for the baseline itself; negative values are measurement noise).
	OverheadPct float64 `json:"overhead_pct"`
}

// RunObsOverhead builds the corpus once, then interleaves repetitions of
// the three modes (after one warmup pass each) and keeps each mode's
// minimum, so environmental drift hits all modes symmetrically — the same
// discipline timePair uses for the RBM/BWM comparison.
func RunObsOverhead(cfg Config) ([]ObsOverheadResult, error) {
	corpus, err := BuildCorpus(cfg)
	if err != nil {
		return nil, err
	}
	db, err := corpus.BuildDBAt(len(corpus.Scripts))
	if err != nil {
		return nil, err
	}
	defer db.Close()

	stats := obs.DefaultStats()
	wasEnabled := stats.Enabled()
	defer stats.SetEnabled(wasEnabled)

	runOnce := func(mode string) (time.Duration, error) {
		stats.SetEnabled(mode != "stats-off")
		var tr *obs.Trace
		start := time.Now()
		for _, q := range corpus.Workload {
			if mode == "traced" {
				tr = obs.NewTrace()
			}
			if _, err := db.RangeQueryCtx(context.Background(), q, core.ModeBWM, core.WithTrace(tr)); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}

	modes := []string{"stats-off", "stats-on", "traced"}
	reps := cfg.Repetitions
	if reps < 1 {
		reps = 1
	}
	best := make(map[string]time.Duration, len(modes))
	for _, m := range modes { // warmup
		if _, err := runOnce(m); err != nil {
			return nil, fmt.Errorf("bench: obsoverhead %s: %w", m, err)
		}
	}
	for r := 0; r < reps; r++ {
		for _, m := range modes {
			d, err := runOnce(m)
			if err != nil {
				return nil, fmt.Errorf("bench: obsoverhead %s: %w", m, err)
			}
			if cur, ok := best[m]; !ok || d < cur {
				best[m] = d
			}
		}
	}

	base := best["stats-off"]
	out := make([]ObsOverheadResult, 0, len(modes))
	reg := obs.Default()
	for _, m := range modes {
		p := ObsOverheadResult{Mode: m, Queries: len(corpus.Workload), Elapsed: best[m]}
		if base > 0 {
			p.OverheadPct = 100 * (float64(best[m]) - float64(base)) / float64(base)
		}
		label := fmt.Sprintf("{mode=%q}", m)
		reg.Gauge("esidb_bench_obsoverhead_seconds" + label).Set(p.Elapsed.Seconds())
		reg.Gauge("esidb_bench_obsoverhead_pct" + label).Set(p.OverheadPct)
		out = append(out, p)
	}
	return out, nil
}

// WriteObsOverhead renders the comparison as a table.
func WriteObsOverhead(w io.Writer, pts []ObsOverheadResult) {
	fmt.Fprintln(w, "Observability overhead (range-query workload, BWM):")
	fmt.Fprintf(w, "  %-10s %-8s %-14s %s\n", "mode", "queries", "workload", "overhead")
	for _, p := range pts {
		fmt.Fprintf(w, "  %-10s %-8d %-14s %+.2f%%\n", p.Mode, p.Queries, p.Elapsed, p.OverheadPct)
	}
}

// WriteObsOverheadJSON emits the comparison as one JSON document for the
// CI smoke gate (scripts assert stats-on overhead < 3%).
func WriteObsOverheadJSON(w io.Writer, pts []ObsOverheadResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Experiment string              `json:"experiment"`
		Points     []ObsOverheadResult `json:"points"`
	}{Experiment: "obsoverhead", Points: pts})
}
