// Command benchfig regenerates every table and figure of the paper's
// evaluation section, plus the ablations and extensions described in
// DESIGN.md.
//
// Usage:
//
//	benchfig -exp all
//	benchfig -exp table1|table2|fig3|fig4|summary
//	benchfig -exp ablation-widening|ablation-ops|ablation-baseline|ablation-cache
//	benchfig -exp ablation-optimize|ablation-quantizer
//	benchfig -exp ext-knn|ext-bic
//	benchfig -exp scale
//
// The exact work behind these series (rules evaluated, S-tree nodes
// visited, WAL fsyncs) is pinned by internal/bench's TestWorkLedger; the
// S-tree's wall clock is the root package's BenchmarkPagedRange.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see usage)")
	flag.Parse()
	if err := run(*exp); err != nil {
		fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
		os.Exit(1)
	}
}

func run(exp string) error {
	out := os.Stdout
	switch exp {
	case "all":
		for _, e := range []string{
			"table1", "table2", "fig3", "fig4", "summary",
			"ablation-widening", "ablation-ops", "ablation-baseline", "ablation-cache", "ablation-optimize", "ablation-quantizer",
			"ext-knn", "ext-bic", "scale",
		} {
			if err := run(e); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
			fmt.Fprintln(out)
		}
		return nil
	case "table1":
		bench.WriteTable1(out)
		return nil
	case "table2":
		rows, err := bench.RunTable2()
		if err != nil {
			return err
		}
		bench.WriteTable2(out, rows)
		return nil
	case "fig3":
		res, err := bench.RunFigure(bench.HelmetConfig())
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Figure 3:")
		res.Print(out)
		return nil
	case "fig4":
		res, err := bench.RunFigure(bench.FlagConfig())
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Figure 4:")
		res.Print(out)
		return nil
	case "summary":
		s, err := bench.RunSummary()
		if err != nil {
			return err
		}
		s.Print(out)
		return nil
	case "ablation-widening":
		pts, err := bench.RunAblationWidening(bench.FlagConfig(), []float64{0, 0.2, 0.4, 0.6, 0.8, 1})
		if err != nil {
			return err
		}
		bench.WriteAblationWidening(out, pts)
		return nil
	case "ablation-ops":
		pts, err := bench.RunAblationOps(bench.FlagConfig(), []int{1, 2, 4, 8, 12})
		if err != nil {
			return err
		}
		bench.WriteAblationOps(out, pts)
		return nil
	case "ablation-baseline":
		cfg := bench.HelmetConfig()
		cfg.Queries = 20 // instantiation is slow; keep the workload modest
		res, err := bench.RunBaseline(cfg)
		if err != nil {
			return err
		}
		bench.WriteBaseline(out, res)
		return nil
	case "ablation-cache":
		res, err := bench.RunCachedAblation(bench.FlagConfig())
		if err != nil {
			return err
		}
		bench.WriteCached(out, res)
		return nil
	case "ablation-optimize":
		res, err := bench.RunOptimizeAblation(bench.FlagConfig())
		if err != nil {
			return err
		}
		bench.WriteOptimize(out, res)
		return nil
	case "ablation-quantizer":
		pts, err := bench.RunAblationQuantizer(bench.FlagConfig(), []int{2, 4, 6, 8})
		if err != nil {
			return err
		}
		bench.WriteAblationQuantizer(out, pts)
		return nil
	case "ext-knn":
		res, err := bench.RunKNNExtension(bench.HelmetConfig(), 5, 10)
		if err != nil {
			return err
		}
		bench.WriteKNN(out, res)
		return nil
	case "ext-bic":
		res, err := bench.RunBICExtension(bench.HelmetConfig())
		if err != nil {
			return err
		}
		bench.WriteBIC(out, res)
		return nil
	case "scale":
		cfg := bench.FlagConfig()
		cfg.Queries = 40
		cfg.Repetitions = 3
		pts, err := bench.RunScale(cfg, []int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		bench.WriteScale(out, pts)
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}
