package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Metrics are sorted by name; one # TYPE line is
// emitted per metric family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	counterNames := sortedKeys(r.counters)
	gaugeNames := sortedKeys(r.gauges)
	histNames := sortedKeys(r.hists)
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()

	typed := make(map[string]bool)
	emitType := func(name, kind string) error {
		fam := family(name)
		if typed[fam] {
			return nil
		}
		typed[fam] = true
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, kind)
		return err
	}
	for _, name := range counterNames {
		if err := emitType(name, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", name, counters[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range gaugeNames {
		if err := emitType(name, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", name, formatFloat(gauges[name].Value())); err != nil {
			return err
		}
	}
	for _, name := range histNames {
		if err := emitType(name, "histogram"); err != nil {
			return err
		}
		h := hists[name]
		bounds, cum := h.Buckets()
		fam := family(name)
		labels := name[len(fam):] // "" or "{...}"
		for i, b := range bounds {
			bucket := withLabel(fam+"_bucket"+labels, "le", formatFloat(b))
			if _, err := fmt.Fprintf(w, "%s %d\n", bucket, cum[i]); err != nil {
				return err
			}
		}
		inf := withLabel(fam+"_bucket"+labels, "le", "+Inf")
		if _, err := fmt.Fprintf(w, "%s %d\n", inf, cum[len(cum)-1]); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", fam, labels, formatFloat(h.Sum())); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", fam, labels, h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// HistogramSnapshot is the JSON wire form of one histogram: raw cumulative
// buckets plus the p50/p90/p99 quantile summaries, so consumers (bench
// reports, /v1/stats clients) read quantiles directly instead of
// re-deriving them from the buckets.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	P50     float64          `json:"p50"`
	P90     float64          `json:"p90"`
	P99     float64          `json:"p99"`
	Buckets map[string]int64 `json:"buckets"` // upper bound -> cumulative count
}

// SnapshotHistogram captures one histogram in wire form.
func SnapshotHistogram(h *Histogram) HistogramSnapshot {
	bounds, cum := h.Buckets()
	hs := HistogramSnapshot{
		Count:   h.Count(),
		Sum:     h.Sum(),
		P50:     h.Quantile(0.50),
		P90:     h.Quantile(0.90),
		P99:     h.Quantile(0.99),
		Buckets: make(map[string]int64, len(cum)),
	}
	for i, b := range bounds {
		hs.Buckets[formatFloat(b)] = cum[i]
	}
	hs.Buckets["+Inf"] = cum[len(cum)-1]
	return hs
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation inside the bucket holding the target rank. Observations
// are assumed non-negative (ours are latencies and fractions); values in
// the +Inf bucket report the largest finite bound. Returns 0 with no
// observations.
func (h *Histogram) Quantile(q float64) float64 {
	bounds, cum := h.Buckets()
	total := cum[len(cum)-1]
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	for i, b := range bounds {
		if float64(cum[i]) >= rank {
			lower := 0.0
			prev := int64(0)
			if i > 0 {
				lower = bounds[i-1]
				prev = cum[i-1]
			}
			in := cum[i] - prev
			if in == 0 {
				return b
			}
			return lower + (b-lower)*(rank-float64(prev))/float64(in)
		}
	}
	return bounds[len(bounds)-1]
}

// registryJSON is the JSON wire form of the whole registry.
type registryJSON struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// WriteJSON renders the registry as a JSON document with counters, gauges
// and histograms keyed by metric name.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := registryJSON{
		Counters:   r.SnapshotCounters(),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	r.mu.RLock()
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	for name, g := range r.gauges {
		out.Gauges[name] = g.Value()
	}
	r.mu.RUnlock()
	for name, h := range hists {
		out.Histograms[name] = SnapshotHistogram(h)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
