package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile of xs by nearest rank. xs must be
// sorted ascending; an empty sample gives 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// supports reports whether n samples leave at least ten beyond the p-th
// percentile, the rule below which a percentile is noise.
func supports(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= 10
}

// reportedPercentiles are the percentiles the harness ever prints.
var reportedPercentiles = []float64{50, 90, 99}

// highestSupported returns the highest reported percentile that n samples
// support, or 0 when even the median has fewer than ten samples beyond it.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range reportedPercentiles {
		if supports(n, p) {
			best = p
		}
	}
	return best
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartileDistance is Q3-Q1 as Python's statistics.quantiles(xs, n=4)
// computes them (the exclusive method), so a spread printed here is the
// spread the acceptance driver computes from the same values. Fewer than
// two values give 0.
func quartileDistance(xs []float64) float64 {
	s := sorted(xs)
	if len(s) < 2 {
		return 0
	}
	return quantile4(s, 3) - quantile4(s, 1)
}

func quantile4(s []float64, i int) float64 {
	const n = 4
	ld := len(s)
	m := ld + 1
	j := i * m / n
	if j < 1 {
		j = 1
	}
	if j > ld-1 {
		j = ld - 1
	}
	delta := i*m - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
}

// span is one timed execution at one depth of the differential replay. All
// spans of one op share Op; Parent is the span of the next-outer depth (0 for
// none). Times are nanoseconds since the recorder's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// selfTimes returns, per span name, every span's self time in ms: its
// duration minus the durations of its direct children. The replay runs the
// depths one after another rather than nested, so a child's whole duration
// counts as covered, and a noisy child can make a self time negative; the
// caller takes a median.
func selfTimes(spans []span) map[string][]float64 {
	children := make(map[int]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.ms()
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.ms()-children[s.ID])
	}
	return out
}

// durations returns, per span name, every span's duration in ms.
func durations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.ms())
	}
	return out
}
