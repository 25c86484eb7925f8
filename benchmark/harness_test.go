package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestPercentilePicker(t *testing.T) {
	for _, n := range []int{0, 5, 19, 20, 99, 100, 101, 999, 1000, 5000} {
		p := highestSupported(n)
		if p != 0 {
			if beyond := float64(n) * (100 - p) / 100; beyond < 10 {
				t.Errorf("n=%d: p%g reported with %.1f samples beyond it", n, p, beyond)
			}
		}
		for _, q := range reportedPercentiles {
			if q > p && supports(n, q) {
				t.Errorf("n=%d: p%g is supported but p%g was picked", n, q, p)
			}
		}
	}
	for n, want := range map[int]float64{19: 0, 20: 50, 99: 50, 100: 90, 999: 90, 1000: 99} {
		if got := highestSupported(n); got != want {
			t.Errorf("highestSupported(%d) = %g, want %g", n, got, want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
}

// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25] in Python.
func TestQuartileDistanceMatchesPython(t *testing.T) {
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got := quartileDistance(xs); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("quartileDistance = %g, want 5.5", got)
	}
	// [1, 2, 4]: quartiles 1 and 4.
	if got := quartileDistance([]float64{4, 1, 2}); math.Abs(got-3) > 1e-12 {
		t.Errorf("quartileDistance of three = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(x float64) int64 { return int64(x * 1e6) }
	spans := []span{
		{ID: 1, Op: 1, Name: spClient, Start: 0, End: ms(10)},
		{ID: 2, Parent: 1, Op: 1, Name: spServer, Start: ms(10), End: ms(17)},
		{ID: 3, Parent: 2, Op: 1, Name: spFacade, Start: ms(17), End: ms(22)},
		{ID: 4, Parent: 3, Op: 1, Name: spParse, Start: ms(22), End: ms(23)},
		{ID: 5, Parent: 3, Op: 1, Name: spBWM, Start: ms(23), End: ms(26)},
		{ID: 6, Op: 1, Name: spRBM, Start: ms(26), End: ms(30)}, // a sibling, nobody's child
		{ID: 7, Op: 2, Name: spClient, Start: ms(30), End: ms(32)},
		{ID: 8, Parent: 7, Op: 2, Name: spServer, Start: ms(32), End: ms(35)}, // slower than its parent: negative self time
	}
	self := selfTimes(spans)
	want := map[string][]float64{
		spClient: {3, -1}, spServer: {2, 3}, spFacade: {1}, spParse: {1}, spBWM: {3}, spRBM: {4},
	}
	for name, w := range want {
		got := self[name]
		if len(got) != len(w) {
			t.Fatalf("%s: %d self times, want %d", name, len(got), len(w))
		}
		for i := range w {
			if math.Abs(got[i]-w[i]) > 1e-9 {
				t.Errorf("%s[%d] self = %g ms, want %g", name, i, got[i], w[i])
			}
		}
	}
	// The nested layers' self times add up to the outermost span.
	if sum := self[spClient][0] + self[spServer][0] + self[spFacade][0] + self[spParse][0] + self[spBWM][0]; math.Abs(sum-10) > 1e-9 {
		t.Errorf("self times sum to %g ms, want the client span's 10", sum)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	sc := scales["smoke"]
	a, b, other := buildCorpus(sc, 7), buildCorpus(sc, 7), buildCorpus(sc, 8)
	if a.digest() != b.digest() {
		t.Error("same seed, different corpus")
	}
	if a.digest() == other.digest() {
		t.Error("different seeds, same corpus")
	}
	if got, want := len(a.seqs), sc.bases*sc.perBase; got != want {
		t.Errorf("%d sequences, want %d", got, want)
	}
	for _, name := range workloadNames {
		wa, err := buildWorkload(name, sc, 7, a)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := buildWorkload(name, sc, 7, b)
		if err != nil {
			t.Fatal(err)
		}
		wo, err := buildWorkload(name, sc, 8, other)
		if err != nil {
			t.Fatal(err)
		}
		for list, pair := range map[string][2][]op{
			"ops": {wa.ops, wb.ops}, "verify": {wa.verify, wb.verify},
		} {
			if digestOps(pair[0]) != digestOps(pair[1]) {
				t.Errorf("%s %s: same seed, different op list", name, list)
			}
		}
		if digestOps(wa.ops) == digestOps(wo.ops) {
			t.Errorf("%s: different seeds, same op list", name)
		}
		if len(wa.ops) != sc.listLen[name] {
			t.Errorf("%s: %d ops, want %d", name, len(wa.ops), sc.listLen[name])
		}
	}
}

// BENCHMARK.json repeats the names this package defines; the driver reads
// the file, the harness prints from the package, so the two must agree.
func TestManifestMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			metricDef
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}
	if mf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", mf.RunSeconds, defaultSeconds)
	}
	if len(mf.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in the manifest, %d in the harness", len(mf.Workloads), len(workloadNames))
	}
	for i, w := range mf.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: manifest has %q / %q", i, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	if len(mf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in the harness", len(mf.EndToEnd), len(endToEnd))
	}
	for i, m := range mf.EndToEnd {
		if m.metricDef != endToEnd[i] {
			t.Errorf("end_to_end[%d]: manifest %+v, harness %+v", i, m.metricDef, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(mf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the manifest, %d in the harness", len(mf.PerLayer), len(perLayer))
	}
	for i, m := range mf.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d]: manifest %+v, harness %+v", i, m, perLayer[i])
		}
	}
}

// TestSmokeSuite runs every workload end to end on the small corpus: both
// passes, every verification check, the report and the span files.
func TestSmokeSuite(t *testing.T) {
	out := t.TempDir()
	code, err := run(context.Background(), options{
		workload: "all", seed: 1, seconds: 0.3, trace: "both", out: out, scale: "smoke",
	})
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code %d: a verification check failed", code)
	}
	data, err := os.ReadFile(filepath.Join(out, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in the report, want %d", len(rep.Workloads), len(workloadNames))
	}
	for _, wr := range rep.Workloads {
		for _, d := range endToEnd {
			if wr.EndToEnd.Metrics[d.Name] <= 0 {
				t.Errorf("%s: %s = %g, want a positive value", wr.Workload, d.Name, wr.EndToEnd.Metrics[d.Name])
			}
		}
		if wr.EndToEnd.Failed != 0 || wr.EndToEnd.Attempted == 0 {
			t.Errorf("%s: %d failed of %d", wr.Workload, wr.EndToEnd.Failed, wr.EndToEnd.Attempted)
		}
		if _, err := os.Stat(filepath.Join(out, "spans-"+wr.Workload+".json")); err != nil {
			t.Errorf("%s: %v", wr.Workload, err)
		}
	}
	left, err := filepath.Glob(filepath.Join(out, "tmp-*"))
	if err != nil || len(left) != 0 {
		t.Errorf("temporary directories left behind: %v %v", left, err)
	}
}
