// Command benchmark is ESIDB's one benchmark: it builds a seeded corpus,
// drives five workloads as closed loops from a /v1 request down to an fsync,
// checks the answers, and prints every metric by name with its unit. README.md
// in this directory defines the metrics and the comparison procedure;
// BENCHMARK.json at the repository root repeats the names for the driver.
//
//	go run -C benchmark repro/benchmark                       # all workloads, both passes
//	go run -C benchmark repro/benchmark --workload ingest --seed 7 --seconds 16 --trace 0
//	go run -C benchmark repro/benchmark -selfcheck
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the timed budget of one
// run, split evenly over the repetitions.
const defaultSeconds = 16

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     string
	out       string
	scale     string
	selfcheck bool
	manifest  string
}

// contractResult is the one JSON object the driver reads from the last line.
type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// environment is recorded in every report so two reports can be told apart.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
	Clients    int     `json:"clients"`
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// workloadReport is everything one workload produced in one invocation.
type workloadReport struct {
	Workload string             `json:"workload"`
	Why      string             `json:"why"`
	EndToEnd *runResult         `json:"end_to_end,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// traced counts the ordinary repetition the traced pass runs for the
	// write-path deltas; its checks count like any other.
	traced tally
}

type report struct {
	Env       environment      `json:"environment"`
	Workloads []workloadReport `json:"workloads"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for the corpus and every op list")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "timed budget of one run, split over the repetitions")
	flag.StringVar(&o.trace, "trace", "both", "0: end-to-end pass with tracing off; 1: traced per-layer pass; both")
	flag.StringVar(&o.out, "out", "out", "directory for report.json, the span files and the temporary databases")
	flag.StringVar(&o.scale, "scale", "paper", "corpus and op-list sizes: paper or smoke")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the end-to-end suite twice and fail if a metric moves by more than its bound")
	flag.StringVar(&o.manifest, "manifest", filepath.Join("..", "BENCHMARK.json"), "BENCHMARK.json, read by -selfcheck for the bounds")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	code, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// run returns the exit code: 0 when every check passed.
func run(ctx context.Context, o options) (int, error) {
	sc, ok := scales[o.scale]
	if !ok {
		return 0, fmt.Errorf("unknown scale %q", o.scale)
	}
	if o.trace != "0" && o.trace != "1" && o.trace != "both" {
		return 0, fmt.Errorf("-trace must be 0, 1 or both, not %q", o.trace)
	}
	if o.seconds <= 0 {
		return 0, fmt.Errorf("-seconds must be positive")
	}
	names := workloadNames
	if o.workload != "all" {
		names = []string{o.workload} // buildWorkload rejects a name it does not know
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return 0, err
	}
	if o.selfcheck {
		return selfcheck(ctx, o, sc, names)
	}
	rep, err := runSuite(ctx, o, sc, names)
	if err != nil {
		return 0, err
	}
	printReport(rep)
	if err := writeJSON(filepath.Join(o.out, "report.json"), rep); err != nil {
		return 0, err
	}
	last := summarize(rep, o)
	line, err := json.Marshal(last)
	if err != nil {
		return 0, err
	}
	fmt.Println(string(line))
	if !last.Correct {
		return 1, nil
	}
	return 0, nil
}

// runSuite runs the named workloads once. Temporary databases live under a
// fresh directory inside o.out and are removed before it returns.
func runSuite(ctx context.Context, o options, sc scale, names []string) (*report, error) {
	tmp, err := os.MkdirTemp(o.out, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	b := &bench{sc: sc, seed: o.seed, seconds: o.seconds, tmp: tmp, corpus: buildCorpus(sc, o.seed)}
	rep := &report{Env: environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: o.seed, Seconds: o.seconds, Scale: sc.name, Clients: nClients,
	}}
	for _, name := range names {
		w, err := buildWorkload(name, sc, o.seed, b.corpus)
		if err != nil {
			return nil, err
		}
		wr := workloadReport{Workload: name, Why: w.why}
		if o.trace != "1" {
			if wr.EndToEnd, err = b.endToEndPass(ctx, w); err != nil {
				return nil, err
			}
		}
		if o.trace != "0" {
			if wr.PerLayer, wr.traced, err = b.tracedPass(ctx, w, o.out); err != nil {
				return nil, err
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
		// Start the next workload from a collected heap.
		runtime.GC()
		debug.FreeOSMemory()
	}
	return rep, nil
}

// total counts what a workload attempted and what failed, over both passes.
func (wr *workloadReport) total() tally {
	t := wr.traced
	if wr.EndToEnd != nil {
		t.add(wr.EndToEnd.tally)
	}
	return t
}

// summarize builds the last line. For one workload and one pass it is the
// driver's contract object; for several it carries each workload's metrics
// under "workload/metric".
func summarize(rep *report, o options) contractResult {
	res := contractResult{Correct: true, Metrics: make(map[string]metricValue)}
	single := len(rep.Workloads) == 1 && o.trace != "both"
	for i := range rep.Workloads {
		wr := &rep.Workloads[i]
		t := wr.total()
		res.Attempted += t.Attempted
		res.Failed += t.Failed
		res.Correct = res.Correct && t.correct()
		prefix := wr.Workload + "/"
		if single {
			prefix = ""
		}
		if wr.EndToEnd != nil {
			for name, v := range contractMetrics(endToEnd, wr.EndToEnd.Metrics) {
				res.Metrics[prefix+name] = v
			}
		}
		if wr.PerLayer != nil {
			for name, v := range contractMetrics(perLayer, wr.PerLayer) {
				res.Metrics[prefix+name] = v
			}
		}
	}
	return res
}

func printReport(rep *report) {
	e := rep.Env
	fmt.Printf("esidb benchmark: scale=%s seed=%d seconds=%g clients=%d nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		e.Scale, e.Seed, e.Seconds, e.Clients, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit)
	for i := range rep.Workloads {
		wr := &rep.Workloads[i]
		t := wr.total()
		fmt.Printf("\n== %s ==\n", wr.Workload)
		if r := wr.EndToEnd; r != nil {
			fmt.Printf("  end to end (tracing off; median of %d repetitions, percentiles over pooled samples):\n", r.Reps)
			for _, d := range endToEnd {
				note := ""
				if strings.HasPrefix(d.Name, "latency_") {
					note = fmt.Sprintf("  n=%d", r.Samples)
				}
				fmt.Printf("    %-34s %12.4f %-6s quartile distance %.4f%s\n", d.Name, r.Metrics[d.Name], d.Unit, r.Spread[d.Name], note)
			}
		}
		if wr.PerLayer != nil {
			fmt.Println("  per layer (traced pass, one client):")
			for _, d := range perLayer {
				fmt.Printf("    %-34s %12.4f %s\n", d.Name, wr.PerLayer[d.Name], d.Unit)
			}
		}
		share := 0.0
		if t.Attempted > 0 {
			share = float64(t.Failed) / float64(t.Attempted)
		}
		fmt.Printf("  failed_share %.6f ratio (%d failed of %d attempted)\n", share, t.Failed, t.Attempted)
		for _, p := range t.Problems {
			fmt.Printf("  PROBLEM: %s\n", p)
		}
	}
	fmt.Println()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// manifest is the part of BENCHMARK.json the self-check reads.
type manifest struct {
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfcheck runs the end-to-end suite twice on this commit and compares every
// metric of every workload with its bound. A metric that moves by more than
// its bound between two runs of the same code cannot gate a later change: it
// belongs in the client. diagnostics, and its bound is not to be widened.
func selfcheck(ctx context.Context, o options, sc scale, names []string) (int, error) {
	data, err := os.ReadFile(o.manifest)
	if err != nil {
		return 0, err
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		return 0, fmt.Errorf("%s: %w", o.manifest, err)
	}
	o.trace = "0"
	var runs [2]*report
	for i := range runs {
		start := time.Now()
		if runs[i], err = runSuite(ctx, o, sc, names); err != nil {
			return 0, err
		}
		fmt.Printf("self-check run %d done in %.0fs\n", i+1, time.Since(start).Seconds())
	}
	type row struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		First    float64 `json:"first"`
		Second   float64 `json:"second"`
		Spread   float64 `json:"spread"`
		Bound    float64 `json:"bound"`
		Within   bool    `json:"within"`
	}
	var rows []row
	code := 0
	fmt.Printf("\n%-14s %-20s %12s %12s %8s %7s\n", "workload", "metric", "first", "second", "spread", "bound")
	for i := range runs[0].Workloads {
		a, b := runs[0].Workloads[i].EndToEnd, runs[1].Workloads[i].EndToEnd
		if !a.correct() || !b.correct() {
			fmt.Printf("%-14s verification failed: %v %v\n", a.Workload, a.Problems, b.Problems)
			code = 1
		}
		for _, d := range mf.EndToEnd {
			x, y := a.Metrics[d.Name], b.Metrics[d.Name]
			spread := 0.0
			if m := (x + y) / 2; m > 0 {
				spread = (max(x, y) - min(x, y)) / m
			}
			r := row{a.Workload, d.Name, x, y, spread, d.Bound, spread <= d.Bound}
			rows = append(rows, r)
			verdict := ""
			if !r.Within {
				verdict = "  OVER: move to the client. diagnostics"
				code = 1
			}
			fmt.Printf("%-14s %-20s %12.4f %12.4f %7.1f%% %6.0f%%%s\n", r.Workload, r.Metric, x, y, 100*spread, 100*d.Bound, verdict)
		}
	}
	return code, writeJSON(filepath.Join(o.out, "selfcheck.json"), rows)
}
