package colorspace

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/imaging"
)

// NamedColors maps the color vocabulary used in queries ("retrieve all
// images that are at least 25% blue") to representative RGB values. The set
// covers the palettes of the synthetic flag/helmet/road-sign data sets.
var NamedColors = map[string]imaging.RGB{
	"black":   {R: 0, G: 0, B: 0},
	"white":   {R: 255, G: 255, B: 255},
	"red":     {R: 204, G: 0, B: 0},
	"green":   {R: 0, G: 153, B: 0},
	"blue":    {R: 0, G: 51, B: 204},
	"navy":    {R: 0, G: 0, B: 102},
	"yellow":  {R: 255, G: 204, B: 0},
	"gold":    {R: 255, G: 184, B: 28},
	"orange":  {R: 255, G: 102, B: 0},
	"purple":  {R: 102, G: 0, B: 153},
	"maroon":  {R: 128, G: 0, B: 0},
	"crimson": {R: 163, G: 38, B: 56},
	"gray":    {R: 128, G: 128, B: 128},
	"silver":  {R: 192, G: 192, B: 192},
	"brown":   {R: 139, G: 69, B: 19},
	"teal":    {R: 0, G: 128, B: 128},
	"sky":     {R: 102, G: 178, B: 255},
}

// LookupColor resolves a (case-insensitive) color name. The boolean reports
// whether the name is known.
func LookupColor(name string) (imaging.RGB, bool) {
	c, ok := NamedColors[strings.ToLower(strings.TrimSpace(name))]
	return c, ok
}

// ColorNames returns the known color names in sorted order.
func ColorNames() []string {
	out := make([]string, 0, len(NamedColors))
	for k := range NamedColors {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// BinForName resolves a color name to its histogram bin under q.
func BinForName(name string, q Quantizer) (int, error) {
	c, ok := LookupColor(name)
	if !ok {
		return 0, fmt.Errorf("colorspace: unknown color name %q", name)
	}
	return q.Bin(c), nil
}

// BinsNear returns every histogram bin reachable by some color within
// maxDist (Euclidean RGB distance, maxDist ≥ 0) of c, by sampling the
// color cube on an 8-step lattice. It powers "color family" queries: under
// fine quantizers a perceptual color spans several bins, and a query over
// the whole family is far more robust than one over the single bin of the
// exact named value.
func BinsNear(c imaging.RGB, maxDist float64, q Quantizer) []int {
	maxSq := maxDist * maxDist
	seen := make(map[int]bool)
	var out []int
	// Lattice step 8 hits every quantizer cell of practical size (≥ 16
	// units per axis). A lattice point outside the box c ± maxDist is
	// farther than maxDist on one axis alone, so only the box is sampled:
	// at radius 64 that is at most 17³ points of the 32³ lattice.
	rLo, rHi := latticeSpan(c.R, maxDist)
	gLo, gHi := latticeSpan(c.G, maxDist)
	bLo, bHi := latticeSpan(c.B, maxDist)
	for r := rLo; r <= rHi; r += 8 {
		for g := gLo; g <= gHi; g += 8 {
			for b := bLo; b <= bHi; b += 8 {
				dr := float64(r - int(c.R))
				dg := float64(g - int(c.G))
				db := float64(b - int(c.B))
				if dr*dr+dg*dg+db*db > maxSq {
					continue
				}
				bin := q.Bin(imaging.RGB{R: uint8(r), G: uint8(g), B: uint8(b)})
				if !seen[bin] {
					seen[bin] = true
					out = append(out, bin)
				}
			}
		}
	}
	// The named color itself always belongs to its family.
	if bin := q.Bin(c); !seen[bin] {
		out = append(out, bin)
	}
	sort.Ints(out)
	return out
}

// latticeSpan returns the first and last 8-aligned lattice value in
// [v−maxDist, v+maxDist] ∩ [0, 255]; the span is empty when lo > hi.
func latticeSpan(v uint8, maxDist float64) (lo, hi int) {
	lo = int(math.Ceil(max(float64(v)-maxDist, 0)))
	hi = int(math.Floor(min(float64(v)+maxDist, 255)))
	return (lo + 7) &^ 7, hi
}

// FamilyForName returns the bin family of a named color with the default
// radius (64 RGB units, about a quarter of the cube diagonal axis).
func FamilyForName(name string, q Quantizer) ([]int, error) {
	c, ok := LookupColor(name)
	if !ok {
		return nil, fmt.Errorf("colorspace: unknown color name %q", name)
	}
	return BinsNear(c, 64, q), nil
}
