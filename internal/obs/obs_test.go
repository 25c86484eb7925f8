package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Resolve through the registry each time to also exercise the
			// get-or-create path under contention.
			for i := 0; i < perG; i++ {
				r.Counter("c").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != goroutines*perG {
		t.Fatalf("counter %d, want %d", got, goroutines*perG)
	}
}

func TestRegistryGetOrCreateSharesInstances(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("same name resolved to two counters")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Fatal("same name resolved to two gauges")
	}
	if r.Histogram("x", DefBuckets) != r.Histogram("x", nil) {
		t.Fatal("same name resolved to two histograms")
	}
}

func TestGaugeSetAdd(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	g.Add(-1)
	if v := g.Value(); v != 1.5 {
		t.Fatalf("gauge %v", v)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	// A value exactly on a bound lands in that bound's bucket (le is
	// inclusive); above the top bound lands in +Inf.
	for _, v := range []float64{0.5, 1, 1.5, 10, 99, 100, 101} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("shape %v %v", bounds, cum)
	}
	want := []int64{2, 4, 6, 7} // le=1: {0.5,1}; le=10: +{1.5,10}; le=100: +{99,100}; +Inf: +{101}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative %v, want %v", cum, want)
		}
	}
	if h.Count() != 7 {
		t.Fatalf("count %d", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+1.5+10+99+100+101; got != want {
		t.Fatalf("sum %v, want %v", got, want)
	}
}

func TestHistogramSortsBounds(t *testing.T) {
	h := newHistogram([]float64{10, 1, 5})
	bounds, _ := h.Buckets()
	if bounds[0] != 1 || bounds[1] != 5 || bounds[2] != 10 {
		t.Fatalf("bounds %v not sorted", bounds)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(`esidb_test_total{mode="a"}`).Add(3)
	r.Counter(`esidb_test_total{mode="b"}`).Add(4)
	r.Gauge("esidb_test_gauge").Set(1.5)
	h := r.Histogram(`esidb_test_seconds{route="GET /x"}`, []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE esidb_test_total counter\n",
		"esidb_test_total{mode=\"a\"} 3\n",
		"esidb_test_total{mode=\"b\"} 4\n",
		"# TYPE esidb_test_gauge gauge\n",
		"esidb_test_gauge 1.5\n",
		"# TYPE esidb_test_seconds histogram\n",
		`esidb_test_seconds_bucket{route="GET /x",le="0.1"} 1` + "\n",
		`esidb_test_seconds_bucket{route="GET /x",le="1"} 1` + "\n",
		`esidb_test_seconds_bucket{route="GET /x",le="+Inf"} 2` + "\n",
		`esidb_test_seconds_sum{route="GET /x"} 5.05` + "\n",
		`esidb_test_seconds_count{route="GET /x"} 2` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// One # TYPE line per family even with two labeled series.
	if strings.Count(text, "# TYPE esidb_test_total") != 1 {
		t.Fatalf("duplicate TYPE lines:\n%s", text)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	r.Gauge("g").Set(2)
	r.Histogram("h", []float64{1}).Observe(0.5)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters   map[string]int64   `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms map[string]struct {
			Count   int64            `json:"count"`
			Sum     float64          `json:"sum"`
			Buckets map[string]int64 `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Counters["c"] != 7 || doc.Gauges["g"] != 2 {
		t.Fatalf("doc %+v", doc)
	}
	h := doc.Histograms["h"]
	if h.Count != 1 || h.Sum != 0.5 || h.Buckets["1"] != 1 || h.Buckets["+Inf"] != 1 {
		t.Fatalf("histogram %+v", h)
	}
}

func TestSnapshotAndDiffCounters(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(5)
	r.Counter("b").Add(1)
	before := r.SnapshotCounters()
	r.Counter("a").Add(2)
	r.Counter("new").Add(3)
	diff := DiffCounters(before, r.SnapshotCounters())
	if len(diff) != 2 || diff["a"] != 2 || diff["new"] != 3 {
		t.Fatalf("diff %v", diff)
	}
	if _, ok := diff["b"]; ok {
		t.Fatal("unmoved counter reported")
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	done := tr.Phase("x") // must not panic
	done()
	tr.Count("k", 3)
	if tr.Get("k") != 0 || tr.Counters() != nil || tr.Phases() != nil {
		t.Fatal("nil trace not inert")
	}
}

// TestNilTraceAllocs: tracing off — a nil *Trace, the default on every
// query path — costs no allocation on any call the query engine makes.
func TestNilTraceAllocs(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(200, func() {
		done := tr.Phase("scan")
		tr.Count(TCandidatesExamined, 3)
		tr.StartSpan("shard:s0").End()
		if tr.Counters() != nil || tr.Get(TImagesReturned) != 0 {
			t.Fatal("nil trace recorded a counter")
		}
		done()
	})
	if allocs != 0 {
		t.Fatalf("nil-trace query path allocates %.1f times per call, want 0", allocs)
	}
}

func TestTracePhasesAndCounters(t *testing.T) {
	tr := NewTrace()
	done := tr.Phase("scan")
	time.Sleep(time.Millisecond)
	done()
	tr.Count(TCandidatesExamined, 4)
	tr.Count(TCandidatesExamined, 1)
	tr.Count("zero", 0) // no-op

	phases := tr.Phases()
	if len(phases) != 1 || phases[0].Name != "scan" || phases[0].Duration <= 0 {
		t.Fatalf("phases %+v", phases)
	}
	if tr.Get(TCandidatesExamined) != 5 {
		t.Fatalf("counter %d", tr.Get(TCandidatesExamined))
	}
	if _, ok := tr.Counters()["zero"]; ok {
		t.Fatal("zero count recorded")
	}
}

func TestTraceMarshalJSON(t *testing.T) {
	tr := NewTrace()
	tr.Phase("a")()
	done := tr.Phase("b")
	time.Sleep(time.Millisecond)
	done()
	tr.Count(TImagesReturned, 2)

	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Phases []struct {
			Name     string  `json:"name"`
			Micros   float64 `json:"duration_us"`
			Fraction float64 `json:"fraction"`
		} `json:"phases"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Phases) != 2 {
		t.Fatalf("phases %+v", doc.Phases)
	}
	var fracSum float64
	for _, p := range doc.Phases {
		fracSum += p.Fraction
	}
	if fracSum < 0.99 || fracSum > 1.01 {
		t.Fatalf("fractions sum to %v", fracSum)
	}
	if doc.Counters[TImagesReturned] != 2 {
		t.Fatalf("counters %v", doc.Counters)
	}
}

func TestWithLabel(t *testing.T) {
	if got := withLabel("m", "le", "+Inf"); got != `m{le="+Inf"}` {
		t.Fatalf("withLabel bare: %q", got)
	}
	if got := withLabel(`m{a="b"}`, "le", "1"); got != `m{a="b",le="1"}` {
		t.Fatalf("withLabel merge: %q", got)
	}
	if got := family(`m{a="b"}`); got != "m" {
		t.Fatalf("family %q", got)
	}
}
