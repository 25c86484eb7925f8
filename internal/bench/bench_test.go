package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rules"
)

// tinyConfig keeps harness tests fast.
func tinyConfig() Config {
	return Config{
		Name:        "tiny",
		Kind:        KindFlag,
		Originals:   6,
		Edited:      20,
		NonWidening: 6,
		ImgW:        24, ImgH: 16,
		OpsPerImage: 3,
		Queries:     15,
		Repetitions: 1,
		Seed:        5,
	}
}

func TestBuildCorpusComposition(t *testing.T) {
	cfg := tinyConfig()
	c, err := BuildCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Originals) != 6 || len(c.Scripts) != 20 || len(c.Workload) != 15 {
		t.Fatalf("corpus sizes %d/%d/%d", len(c.Originals), len(c.Scripts), len(c.Workload))
	}
	if c.WideningCount != 14 {
		t.Fatalf("widening count %d", c.WideningCount)
	}
	// Leading scripts are widening, trailing are not.
	for i, s := range c.Scripts {
		img := c.Originals[c.ScriptBase[i]].Img
		w := rules.SequenceIsWideningFor(s.Ops, img.W, img.H)
		if i < c.WideningCount && !w {
			t.Fatalf("script %d should be widening", i)
		}
		if i >= c.WideningCount && w {
			t.Fatalf("script %d should be non-widening", i)
		}
	}
}

func TestBuildCorpusDeterministic(t *testing.T) {
	a, err := BuildCorpus(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCorpus(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Scripts) != len(b.Scripts) {
		t.Fatal("script counts differ")
	}
	for i := range a.Scripts {
		if a.Scripts[i].BaseID != b.Scripts[i].BaseID || len(a.Scripts[i].Ops) != len(b.Scripts[i].Ops) {
			t.Fatalf("script %d differs across builds", i)
		}
	}
	for i := range a.Workload {
		if a.Workload[i] != b.Workload[i] {
			t.Fatal("workload differs across builds")
		}
	}
}

func TestBuildCorpusValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.NonWidening = cfg.Edited + 1
	if _, err := BuildCorpus(cfg); err == nil {
		t.Fatal("invalid non-widening accepted")
	}
	cfg = tinyConfig()
	cfg.Kind = "unknown"
	if _, err := BuildCorpus(cfg); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestBuildDBAtComposition(t *testing.T) {
	cfg := tinyConfig()
	c, err := BuildCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, seqCount := range []int{0, 10, 20} {
		db, err := c.BuildDBAt(seqCount)
		if err != nil {
			t.Fatalf("seqCount %d: %v", seqCount, err)
		}
		st, err := db.Stats()
		if err != nil {
			t.Fatal(err)
		}
		wantBinary := cfg.Originals + (cfg.Edited - seqCount)
		if st.Catalog.Binaries != wantBinary || st.Catalog.Edited != seqCount {
			t.Fatalf("seqCount %d: binaries %d (want %d), edited %d",
				seqCount, st.Catalog.Binaries, wantBinary, st.Catalog.Edited)
		}
		if st.Catalog.Images != cfg.Total() {
			t.Fatalf("total %d != %d", st.Catalog.Images, cfg.Total())
		}
		db.Close()
	}
	if _, err := c.BuildDBAt(-1); err == nil {
		t.Fatal("negative seqCount accepted")
	}
	if _, err := c.BuildDBAt(21); err == nil {
		t.Fatal("oversized seqCount accepted")
	}
}

func TestRunWorkloadModesAgreeOnCorpusDB(t *testing.T) {
	c, err := BuildCorpus(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	db, err := c.BuildDBAt(12)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, q := range c.Workload {
		a, err := db.RangeQuery(q, core.ModeRBM)
		if err != nil {
			t.Fatal(err)
		}
		b, err := db.RangeQuery(q, core.ModeBWM)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.IDs) != len(b.IDs) {
			t.Fatalf("query %+v: RBM %d ids, BWM %d", q, len(a.IDs), len(b.IDs))
		}
	}
}

// The registry delta a workload run reports must agree with the harness's
// own per-query accounting: RBM walks every stored sequence, so the summed
// per-op-type rules counters equal OpsEvaluated.
func TestRunWorkloadCountersMatchStats(t *testing.T) {
	c, err := BuildCorpus(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	db, err := c.BuildDBAt(12)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, tot, err := c.RunWorkload(db, core.ModeRBM)
	if err != nil {
		t.Fatal(err)
	}
	if tot.Counters == nil {
		t.Fatal("no counter delta recorded")
	}
	var rules int64
	for name, v := range tot.Counters {
		if strings.HasPrefix(name, "esidb_rbm_rules_evaluated_total{") {
			rules += v
		}
	}
	if rules != int64(tot.OpsEvaluated) {
		t.Fatalf("rules counters %d != OpsEvaluated %d (delta %v)", rules, tot.OpsEvaluated, tot.Counters)
	}
	if tot.Counters["esidb_rbm_edited_walked_total"] != int64(tot.EditedWalked) {
		t.Fatalf("edited_walked counter %d != stat %d",
			tot.Counters["esidb_rbm_edited_walked_total"], tot.EditedWalked)
	}
	if tot.Counters[`esidb_queries_total{mode="rbm"}`] != int64(len(c.Workload)) {
		t.Fatalf("queries counter %v, want %d", tot.Counters, len(c.Workload))
	}
}

func TestRunFigureShape(t *testing.T) {
	cfg := tinyConfig()
	res, err := RunFigure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no sweep points")
	}
	last := res.Points[len(res.Points)-1]
	if last.SeqCount != cfg.Edited {
		t.Fatalf("sweep does not end at full conversion: %d", last.SeqCount)
	}
	for i, p := range res.Points {
		// The robust shape claim: BWM never evaluates more rules than RBM.
		if p.BWMOps > p.RBMOps {
			t.Fatalf("point %d: BWM ops %d > RBM ops %d", i, p.BWMOps, p.RBMOps)
		}
		if i > 0 && p.RBMOps < res.Points[i-1].RBMOps {
			t.Fatalf("point %d: RBM ops decreased along the sweep", i)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Range Query Time") {
		t.Fatal("figure print missing header")
	}
}

func TestDefaultSweepCoversEdited(t *testing.T) {
	cfg := tinyConfig()
	pts := defaultSweep(cfg)
	if pts[len(pts)-1] != cfg.Edited {
		t.Fatalf("sweep %v does not reach %d", pts, cfg.Edited)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i] <= pts[i-1] {
			t.Fatalf("sweep %v not increasing", pts)
		}
	}
	for _, p := range pts {
		if p > cfg.Edited {
			t.Fatalf("sweep point %d exceeds edited pool", p)
		}
	}
}

func TestTable1Print(t *testing.T) {
	var buf bytes.Buffer
	WriteTable1(&buf)
	out := buf.String()
	for _, want := range []string{"Combine", "Modify", "Mutate", "Merge", "widening"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2RealizedParameters(t *testing.T) {
	if testing.Short() {
		t.Skip("table 2 builds both full corpora")
	}
	rows, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	// Totals must match the configs.
	if rows[0].Helmet != float64(HelmetConfig().Total()) || rows[0].Flag != float64(FlagConfig().Total()) {
		t.Fatalf("totals row %+v", rows[0])
	}
	// Widening + non-widening = edited.
	if rows[4].Helmet+rows[5].Helmet != rows[2].Helmet {
		t.Fatalf("helmet widening split %+v %+v %+v", rows[2], rows[4], rows[5])
	}
	var buf bytes.Buffer
	WriteTable2(&buf, rows)
	if !strings.Contains(buf.String(), "Helmet") {
		t.Fatal("table 2 print malformed")
	}
}

func TestAblationWidening(t *testing.T) {
	cfg := tinyConfig()
	pts, err := RunAblationWidening(cfg, []float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	var buf bytes.Buffer
	WriteAblationWidening(&buf, pts)
	if !strings.Contains(buf.String(), "non-widening") {
		t.Fatal("ablation A print malformed")
	}
}

func TestAblationOps(t *testing.T) {
	cfg := tinyConfig()
	pts, err := RunAblationOps(cfg, []int{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	var buf bytes.Buffer
	WriteAblationOps(&buf, pts)
	if !strings.Contains(buf.String(), "ops/image") {
		t.Fatal("ablation B print malformed")
	}
}

func TestBaselineOrdering(t *testing.T) {
	cfg := tinyConfig()
	cfg.Queries = 10
	res, err := RunBaseline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The instantiation ground truth must be slower than the bound methods
	// — that gap is the paper's whole motivation.
	if res.Instantiate <= res.BWM {
		t.Fatalf("instantiate %v not slower than BWM %v", res.Instantiate, res.BWM)
	}
	var buf bytes.Buffer
	WriteBaseline(&buf, res)
	if !strings.Contains(buf.String(), "instantiate") {
		t.Fatal("baseline print malformed")
	}
}

func TestKNNExtension(t *testing.T) {
	cfg := tinyConfig()
	res, err := RunKNNExtension(cfg, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.EditedTotal != 3*cfg.Edited {
		t.Fatalf("edited total %d", res.EditedTotal)
	}
	var buf bytes.Buffer
	WriteKNN(&buf, res)
	if !strings.Contains(buf.String(), "k-NN") {
		t.Fatal("knn print malformed")
	}
}

func TestBICExtension(t *testing.T) {
	cfg := tinyConfig()
	res, err := RunBICExtension(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes == 0 {
		t.Fatal("no probes evaluated")
	}
	if res.HistMeanRank < 1 || res.BICMeanRank < 1 {
		t.Fatalf("impossible ranks: %+v", res)
	}
	if res.HistRecall1 < 0 || res.HistRecall1 > 1 || res.BICRecall1 < 0 || res.BICRecall1 > 1 {
		t.Fatalf("recall out of range: %+v", res)
	}
	var buf bytes.Buffer
	WriteBIC(&buf, res)
	if !strings.Contains(buf.String(), "BIC") {
		t.Fatal("BIC print malformed")
	}
}

func TestCachedAblation(t *testing.T) {
	res, err := RunCachedAblation(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	if want := cfg.Total(); res.Items != want || res.Bytes <= 0 || res.BuildTime <= 0 {
		t.Fatalf("index %d items (want %d) %d bytes, build %s", res.Items, want, res.Bytes, res.BuildTime)
	}
	var buf bytes.Buffer
	WriteCached(&buf, res)
	if !strings.Contains(buf.String(), "indexed") {
		t.Fatal("ablation G print malformed")
	}
}

func TestOptimizeAblation(t *testing.T) {
	res, err := RunOptimizeAblation(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.OpsAfter > res.OpsBefore {
		t.Fatalf("optimizer grew scripts: %d -> %d", res.OpsBefore, res.OpsAfter)
	}
	if !res.ResultsEqual {
		t.Fatal("optimized corpus returned extra results")
	}
	var buf bytes.Buffer
	WriteOptimize(&buf, res)
	if !strings.Contains(buf.String(), "optimizer") {
		t.Fatal("ablation H print malformed")
	}
}

func TestAblationQuantizer(t *testing.T) {
	cfg := tinyConfig()
	cfg.Queries = 10
	pts, err := RunAblationQuantizer(cfg, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Bins != 8 || pts[1].Bins != 64 {
		t.Fatalf("points %+v", pts)
	}
	var buf bytes.Buffer
	WriteAblationQuantizer(&buf, pts)
	if !strings.Contains(buf.String(), "granularity") {
		t.Fatal("ablation I print malformed")
	}
}

func TestScaleExperiment(t *testing.T) {
	cfg := tinyConfig()
	cfg.Queries = 8
	pts, err := RunScale(cfg, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[1].Images != 2*pts[0].Images {
		t.Fatalf("scale images %d vs %d", pts[0].Images, pts[1].Images)
	}
	var buf bytes.Buffer
	WriteScale(&buf, pts)
	if !strings.Contains(buf.String(), "corpus size") {
		t.Fatal("scale print malformed")
	}
}
