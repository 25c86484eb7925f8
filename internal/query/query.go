// Package query defines the retrieval request model of the database — the
// color range queries of the paper ("retrieve all images that are at least
// 25% blue") and the k-nearest-neighbor similarity queries of its
// future-work section — plus a small text syntax for both.
package query

import (
	"errors"
	"fmt"

	"repro/internal/colorspace"
	"repro/internal/histogram"
)

// Range is a color range query: images qualify when their percentage of
// pixels in histogram bin Bin lies in (or overlaps, for bounded edited
// images) the inclusive interval [PctMin, PctMax].
type Range struct {
	Bin            int
	PctMin, PctMax float64
}

// Validate checks the interval and bin are sensible for a quantizer with
// the given bin count.
func (r Range) Validate(bins int) error {
	if r.Bin < 0 || r.Bin >= bins {
		return fmt.Errorf("query: bin %d outside [0,%d)", r.Bin, bins)
	}
	if r.PctMin < 0 || r.PctMax > 1 || r.PctMin > r.PctMax {
		return fmt.Errorf("query: percentage interval [%v,%v] invalid", r.PctMin, r.PctMax)
	}
	return nil
}

// MatchesExact reports whether an exactly known histogram satisfies the
// range query.
func (r Range) MatchesExact(h *histogram.Histogram) bool {
	p := h.Pct(r.Bin)
	return p >= r.PctMin && p <= r.PctMax
}

// NewRangeForColor builds a range query for a named color under q.
func NewRangeForColor(name string, pctMin, pctMax float64, q colorspace.Quantizer) (Range, error) {
	bin, err := colorspace.BinForName(name, q)
	if err != nil {
		return Range{}, err
	}
	r := Range{Bin: bin, PctMin: pctMin, PctMax: pctMax}
	return r, r.Validate(q.Bins())
}

// KNN is a k-nearest-neighbor similarity query: find the K images whose
// histograms are closest to Target under the given metric.
type KNN struct {
	Target *histogram.Histogram
	K      int
	Metric Metric
}

// Metric selects the histogram distance for KNN queries.
type Metric uint8

const (
	// MetricL1 is the city-block distance over normalized histograms.
	MetricL1 Metric = iota
	// MetricL2 is the Euclidean distance over normalized histograms.
	MetricL2
	// MetricIntersection ranks by 1 − HistogramIntersection, so smaller is
	// more similar, like the other metrics.
	MetricIntersection
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case MetricL1:
		return "l1"
	case MetricL2:
		return "l2"
	case MetricIntersection:
		return "intersection"
	default:
		return fmt.Sprintf("metric(%d)", uint8(m))
	}
}

// Distance evaluates the metric between two histograms.
func (m Metric) Distance(a, b *histogram.Histogram) float64 {
	switch m {
	case MetricL1:
		return histogram.L1(a, b)
	case MetricL2:
		return histogram.L2(a, b)
	case MetricIntersection:
		return 1 - histogram.Intersection(a, b)
	default:
		panic(fmt.Sprintf("query: unknown metric %d", uint8(m)))
	}
}

// ErrUnknownMetric is wrapped by Metric.Validate for a value that names no
// distance.
var ErrUnknownMetric = errors.New("query: unknown metric")

// Validate reports whether m names a distance Distance can evaluate.
func (m Metric) Validate() error {
	if m > MetricIntersection {
		return fmt.Errorf("%w %d", ErrUnknownMetric, uint8(m))
	}
	return nil
}

// Validate checks the KNN query is well-formed.
func (k KNN) Validate() error {
	if k.Target == nil {
		return fmt.Errorf("query: knn target histogram is nil")
	}
	if k.K <= 0 {
		return fmt.Errorf("query: k = %d must be positive", k.K)
	}
	return k.Metric.Validate()
}

// MultiRange is a range query over a SET of histogram bins: images qualify
// when the SUM of their percentages across Bins lies in [PctMin, PctMax].
// Single-bin queries are the paper's model; multi-bin queries make "blue"
// robust under fine quantizers where one perceptual color spans several
// bins. The bound rules lift soundly: summing per-bin intervals bounds the
// sum, and per-bin widening implies sum widening, so BWM's cluster skip
// remains exact.
type MultiRange struct {
	Bins           []int
	PctMin, PctMax float64
}

// Validate checks the bin set and interval.
func (m MultiRange) Validate(bins int) error {
	if len(m.Bins) == 0 {
		return fmt.Errorf("query: multi-range with no bins")
	}
	seen := make(map[int]bool, len(m.Bins))
	for _, b := range m.Bins {
		if b < 0 || b >= bins {
			return fmt.Errorf("query: bin %d outside [0,%d)", b, bins)
		}
		if seen[b] {
			return fmt.Errorf("query: duplicate bin %d", b)
		}
		seen[b] = true
	}
	if m.PctMin < 0 || m.PctMax > 1 || m.PctMin > m.PctMax {
		return fmt.Errorf("query: percentage interval [%v,%v] invalid", m.PctMin, m.PctMax)
	}
	return nil
}

// SumPct returns the histogram's total percentage across the bin set.
func (m MultiRange) SumPct(h *histogram.Histogram) float64 {
	s := 0.0
	for _, b := range m.Bins {
		s += h.Pct(b)
	}
	return s
}

// MatchesExact reports whether an exactly known histogram satisfies the
// query.
func (m MultiRange) MatchesExact(h *histogram.Histogram) bool {
	p := m.SumPct(h)
	return p >= m.PctMin && p <= m.PctMax
}
