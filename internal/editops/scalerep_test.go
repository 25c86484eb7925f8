package editops

import "testing"

// scaleReplicationRef is the direct count ScaleReplication replaced: one
// counter per source index, then the minimum and maximum over them.
func scaleReplicationRef(w int, s float64, outW int) (minRep, maxRep int) {
	if w <= 0 {
		return 0, 0
	}
	counts := make([]int, w)
	for x := 0; x < outW; x++ {
		counts[ScaleSrcIndex(x, w, s)]++
	}
	minRep, maxRep = counts[0], counts[0]
	for _, c := range counts[1:] {
		if c < minRep {
			minRep = c
		}
		if c > maxRep {
			maxRep = c
		}
	}
	return minRep, maxRep
}

// TestScaleReplicationMatchesReference compares the one-pass run count with
// the per-index count for every w, outW ≤ 256 — including output widths
// that ScaleOutDim would not produce, where some source index goes
// unsampled — over a grid of factors from far below to far above 1.
func TestScaleReplicationMatchesReference(t *testing.T) {
	scales := []float64{0.01, 0.1, 1.0 / 3, 2.0 / 3, 1.7320508075688772, 2.718281828459045, 300}
	for k := 1; k <= 24; k++ {
		scales = append(scales, float64(k)/4)
	}
	for _, s := range scales {
		for w := 0; w <= 256; w++ {
			for outW := 0; outW <= 256; outW++ {
				lo, hi := ScaleReplication(w, s, outW)
				wantLo, wantHi := scaleReplicationRef(w, s, outW)
				if lo != wantLo || hi != wantHi {
					t.Fatalf("ScaleReplication(%d, %v, %d) = [%d,%d], reference [%d,%d]", w, s, outW, lo, hi, wantLo, wantHi)
				}
			}
		}
	}
}

// TestScaleReplicationAllocs pins the point of the run count: a Resize rule
// evaluation calls it twice per candidate, and it allocates nothing.
func TestScaleReplicationAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { ScaleReplication(200, 1.3, ScaleOutDim(200, 1.3)) }); n != 0 {
		t.Fatalf("ScaleReplication allocates %v objects per call", n)
	}
}
