// Package histogram implements the color-histogram signatures at the heart
// of the paper's CBIR scheme (§3.1): extraction under a quantizer, the
// percentage view used by range queries, and the similarity functions the
// paper cites — Swain–Ballard Histogram Intersection and the L_p distances.
package histogram

import (
	"fmt"
	"math"

	"repro/internal/colorspace"
	"repro/internal/imaging"
)

// Histogram holds pixel counts per color bin for one image. Counts are raw
// pixel counts; percentage views are derived so that exact integer state is
// preserved for the rule engine.
type Histogram struct {
	Counts []int
	Total  int
}

// New returns an all-zero histogram with the given number of bins.
func New(bins int) *Histogram {
	return &Histogram{Counts: make([]int, bins)}
}

// Extract computes the histogram of img under q.
func Extract(img *imaging.Image, q colorspace.Quantizer) *Histogram {
	h := New(q.Bins())
	for _, p := range img.Pix {
		h.Counts[q.Bin(p)]++
	}
	h.Total = img.Size()
	return h
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.Counts) }

// Pct returns the fraction of pixels in bin (0 for an empty image).
func (h *Histogram) Pct(bin int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[bin]) / float64(h.Total)
}

// Normalized returns the percentage vector: Counts[i]/Total per bin. An
// empty image yields an all-zero vector.
func (h *Histogram) Normalized() []float64 {
	return h.NormalizedInto(make([]float64, len(h.Counts)))
}

// NormalizedInto is Normalized written into out, which must hold Bins()
// values; it returns out.
func (h *Histogram) NormalizedInto(out []float64) []float64 {
	out = out[:len(h.Counts)]
	if h.Total == 0 {
		clear(out)
		return out
	}
	t := float64(h.Total)
	for i, c := range h.Counts {
		out[i] = float64(c) / t
	}
	return out
}

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	out := &Histogram{Counts: make([]int, len(h.Counts)), Total: h.Total}
	copy(out.Counts, h.Counts)
	return out
}

// Equal reports whether two histograms have identical bins, counts and
// totals.
func (h *Histogram) Equal(o *Histogram) bool {
	if h.Total != o.Total || len(h.Counts) != len(o.Counts) {
		return false
	}
	for i, c := range h.Counts {
		if c != o.Counts[i] {
			return false
		}
	}
	return true
}

// Validate checks internal consistency: non-negative counts summing to
// Total. Histograms read from storage are validated before use.
func (h *Histogram) Validate() error {
	sum := 0
	for i, c := range h.Counts {
		if c < 0 {
			return fmt.Errorf("histogram: bin %d has negative count %d", i, c)
		}
		sum += c
	}
	if sum != h.Total {
		return fmt.Errorf("histogram: counts sum to %d but total is %d", sum, h.Total)
	}
	return nil
}

// Intersection computes the Swain–Ballard histogram intersection similarity
// Σ min(x_i, y_i) over the normalized vectors: 1 for identical
// distributions, 0 for disjoint ones. (Paper §3.1, formula (1).)
func Intersection(a, b *Histogram) float64 {
	an, bn := a.Normalized(), b.Normalized()
	if len(an) != len(bn) {
		panic(fmt.Sprintf("histogram: intersecting %d-bin with %d-bin histogram", len(an), len(bn)))
	}
	s := 0.0
	for i := range an {
		s += math.Min(an[i], bn[i])
	}
	return s
}

// LpDistance computes (Σ |x_i − y_i|^p)^(1/p) over the normalized vectors
// (paper §3.1, formula (2)). p must be ≥ 1; p = 1 is the city-block
// distance, p = 2 Euclidean.
func LpDistance(a, b *Histogram, p float64) float64 {
	if p < 1 {
		panic(fmt.Sprintf("histogram: Lp distance with p=%v < 1", p))
	}
	an, bn := a.Normalized(), b.Normalized()
	if len(an) != len(bn) {
		panic(fmt.Sprintf("histogram: comparing %d-bin with %d-bin histogram", len(an), len(bn)))
	}
	s := 0.0
	for i := range an {
		d := math.Abs(an[i] - bn[i])
		if p == 1 {
			s += d
		} else {
			s += math.Pow(d, p)
		}
	}
	if p == 1 {
		return s
	}
	return math.Pow(s, 1/p)
}

// L1 is LpDistance with p = 1.
func L1(a, b *Histogram) float64 { return LpDistance(a, b, 1) }

// L2 is LpDistance with p = 2.
func L2(a, b *Histogram) float64 { return LpDistance(a, b, 2) }
