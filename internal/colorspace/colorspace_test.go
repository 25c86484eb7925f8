package colorspace

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/imaging"
)

func TestRGBToHSVKnownValues(t *testing.T) {
	cases := []struct {
		in   imaging.RGB
		want HSV
	}{
		{imaging.RGB{R: 255, G: 0, B: 0}, HSV{0, 1, 1}},
		{imaging.RGB{R: 0, G: 255, B: 0}, HSV{120, 1, 1}},
		{imaging.RGB{R: 0, G: 0, B: 255}, HSV{240, 1, 1}},
		{imaging.RGB{R: 255, G: 255, B: 255}, HSV{0, 0, 1}},
		{imaging.RGB{R: 0, G: 0, B: 0}, HSV{0, 0, 0}},
		{imaging.RGB{R: 128, G: 128, B: 128}, HSV{0, 0, 128.0 / 255}},
	}
	for _, c := range cases {
		got := RGBToHSV(c.in)
		if math.Abs(got.H-c.want.H) > 0.5 || math.Abs(got.S-c.want.S) > 0.01 || math.Abs(got.V-c.want.V) > 0.01 {
			t.Errorf("RGBToHSV(%v) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestHSVRoundTrip(t *testing.T) {
	f := func(r, g, b uint8) bool {
		in := imaging.RGB{R: r, G: g, B: b}
		out := HSVToRGB(RGBToHSV(in))
		// Allow ±1 per channel for float rounding.
		d := func(a, b uint8) int {
			v := int(a) - int(b)
			if v < 0 {
				v = -v
			}
			return v
		}
		return d(in.R, out.R) <= 1 && d(in.G, out.G) <= 1 && d(in.B, out.B) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLuvKnownValues(t *testing.T) {
	// White: L=100, u=v=0.
	w := RGBToLuv(imaging.RGB{R: 255, G: 255, B: 255})
	if math.Abs(w.L-100) > 0.1 || math.Abs(w.U) > 0.5 || math.Abs(w.V) > 0.5 {
		t.Fatalf("white Luv = %+v", w)
	}
	// Black: all zero.
	b := RGBToLuv(imaging.RGB{R: 0, G: 0, B: 0})
	if b.L != 0 || b.U != 0 || b.V != 0 {
		t.Fatalf("black Luv = %+v", b)
	}
	// Red has positive u (red-green axis).
	r := RGBToLuv(imaging.RGB{R: 255, G: 0, B: 0})
	if r.U <= 0 {
		t.Fatalf("red Luv = %+v, want U > 0", r)
	}
	// L is monotone in gray level.
	prev := -1.0
	for v := 0; v <= 255; v += 15 {
		l := RGBToLuv(imaging.RGB{R: uint8(v), G: uint8(v), B: uint8(v)}).L
		if l < prev {
			t.Fatalf("L not monotone at gray %d: %f < %f", v, l, prev)
		}
		prev = l
	}
}

func TestUniformRGBBinsInRange(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		q := NewUniformRGB(n)
		if q.Bins() != n*n*n {
			t.Fatalf("Bins(%d) = %d", n, q.Bins())
		}
		f := func(r, g, b uint8) bool {
			bin := q.Bin(imaging.RGB{R: r, G: g, B: b})
			return bin >= 0 && bin < q.Bins()
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestUniformRGBCornerAssignments(t *testing.T) {
	q := NewUniformRGB(4)
	if q.Bin(imaging.RGB{R: 0, G: 0, B: 0}) != 0 {
		t.Fatal("black not in bin 0")
	}
	if q.Bin(imaging.RGB{R: 255, G: 255, B: 255}) != q.Bins()-1 {
		t.Fatal("white not in last bin")
	}
	// Channel order: r major, b minor.
	rBin := q.Bin(imaging.RGB{R: 255, G: 0, B: 0})
	bBin := q.Bin(imaging.RGB{R: 0, G: 0, B: 255})
	if rBin != 3*16 || bBin != 3 {
		t.Fatalf("rBin=%d bBin=%d", rBin, bBin)
	}
}

func TestUniformRGBBinCenterConsistent(t *testing.T) {
	q := NewUniformRGB(8)
	for bin := 0; bin < q.Bins(); bin++ {
		if got := q.Bin(q.BinCenter(bin)); got != bin {
			t.Fatalf("BinCenter(%d) maps back to %d", bin, got)
		}
	}
}

func TestUniformRGBPanicsOnBadDivs(t *testing.T) {
	for _, n := range []int{0, -1, 257} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewUniformRGB(%d) did not panic", n)
				}
			}()
			NewUniformRGB(n)
		}()
	}
}

func TestUniformHSVBinsInRange(t *testing.T) {
	q := NewUniformHSV(18, 3, 3)
	if q.Bins() != 162 {
		t.Fatalf("Bins = %d", q.Bins())
	}
	f := func(r, g, b uint8) bool {
		bin := q.Bin(imaging.RGB{R: r, G: g, B: b})
		return bin >= 0 && bin < q.Bins()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformHSVSeparatesHues(t *testing.T) {
	q := NewUniformHSV(6, 1, 1)
	red := q.Bin(imaging.RGB{R: 255, G: 0, B: 0})
	green := q.Bin(imaging.RGB{R: 0, G: 255, B: 0})
	blue := q.Bin(imaging.RGB{R: 0, G: 0, B: 255})
	if red == green || green == blue || red == blue {
		t.Fatalf("hues collide: r=%d g=%d b=%d", red, green, blue)
	}
}

func TestQuantizerDeterminism(t *testing.T) {
	qs := []Quantizer{NewUniformRGB(4), NewUniformHSV(12, 2, 2)}
	for _, q := range qs {
		c := imaging.RGB{R: 37, G: 211, B: 90}
		a, b := q.Bin(c), q.Bin(c)
		if a != b {
			t.Fatalf("%s: nondeterministic bin", q.Name())
		}
	}
}

func TestParseQuantizerRoundTrip(t *testing.T) {
	qs := []Quantizer{NewUniformRGB(4), NewUniformRGB(16), NewUniformHSV(18, 3, 3)}
	for _, q := range qs {
		got, err := ParseQuantizer(q.Name())
		if err != nil {
			t.Fatalf("%s: %v", q.Name(), err)
		}
		if got.Name() != q.Name() || got.Bins() != q.Bins() {
			t.Fatalf("round trip %s -> %s", q.Name(), got.Name())
		}
	}
	if _, err := ParseQuantizer("bogus"); err == nil {
		t.Fatal("ParseQuantizer accepted bogus name")
	}
	if _, err := ParseQuantizer("rgb0"); err == nil {
		t.Fatal("ParseQuantizer accepted rgb0")
	}
}

func TestNamedColors(t *testing.T) {
	c, ok := LookupColor("Blue")
	if !ok {
		t.Fatal("blue not found")
	}
	if c.B <= c.R || c.B <= c.G {
		t.Fatalf("blue is not blue: %v", c)
	}
	if _, ok := LookupColor("chartreuse-ish"); ok {
		t.Fatal("unknown color resolved")
	}
	names := ColorNames()
	if len(names) != len(NamedColors) {
		t.Fatalf("ColorNames count %d", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("ColorNames not sorted")
		}
	}
}

func TestBinForName(t *testing.T) {
	q := NewUniformRGB(4)
	bin, err := BinForName("red", q)
	if err != nil {
		t.Fatal(err)
	}
	if want := q.Bin(NamedColors["red"]); bin != want {
		t.Fatalf("bin = %d, want %d", bin, want)
	}
	if _, err := BinForName("nope", q); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestUniformLuvBinsInRange(t *testing.T) {
	q := NewUniformLuv(4, 6)
	if q.Bins() != 4*36 {
		t.Fatalf("Bins = %d", q.Bins())
	}
	f := func(r, g, b uint8) bool {
		bin := q.Bin(imaging.RGB{R: r, G: g, B: b})
		return bin >= 0 && bin < q.Bins()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformLuvSeparatesLightnessAndHue(t *testing.T) {
	q := NewUniformLuv(4, 4)
	black := q.Bin(imaging.RGB{R: 0, G: 0, B: 0})
	white := q.Bin(imaging.RGB{R: 255, G: 255, B: 255})
	red := q.Bin(imaging.RGB{R: 255, G: 0, B: 0})
	green := q.Bin(imaging.RGB{R: 0, G: 255, B: 0})
	if black == white {
		t.Fatal("black and white collide")
	}
	if red == green {
		t.Fatal("red and green collide")
	}
}

func TestUniformLuvPanicsOnBadDivs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewUniformLuv(0,1) did not panic")
		}
	}()
	NewUniformLuv(0, 1)
}

func TestParseQuantizerLuv(t *testing.T) {
	q := NewUniformLuv(5, 7)
	got, err := ParseQuantizer(q.Name())
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "luv5x7" || got.Bins() != q.Bins() {
		t.Fatalf("round trip %s -> %s", q.Name(), got.Name())
	}
	if _, err := ParseQuantizer("luv0x4"); err == nil {
		t.Fatal("luv0x4 accepted")
	}
}

func TestBinsNear(t *testing.T) {
	q := NewUniformRGB(4)
	blue := NamedColors["blue"]
	bins := BinsNear(blue, 64, q)
	if len(bins) == 0 {
		t.Fatal("empty family")
	}
	// The exact bin is always a member, and the list is sorted + unique.
	exact := q.Bin(blue)
	found := false
	for i, b := range bins {
		if b == exact {
			found = true
		}
		if b < 0 || b >= q.Bins() {
			t.Fatalf("bin %d out of range", b)
		}
		if i > 0 && bins[i-1] >= b {
			t.Fatal("family not sorted unique")
		}
	}
	if !found {
		t.Fatal("exact bin missing from family")
	}
	// A zero radius still yields the exact bin.
	small := BinsNear(blue, 0, q)
	if len(small) != 1 || small[0] != exact {
		t.Fatalf("zero-radius family %v", small)
	}
	// A huge radius covers every bin.
	all := BinsNear(blue, 500, q)
	if len(all) != q.Bins() {
		t.Fatalf("huge radius covered %d of %d bins", len(all), q.Bins())
	}
}

// binsNearFullLattice is BinsNear as it was before it sampled only the
// box around c: every point of the 32³ lattice, kept as the reference.
func binsNearFullLattice(c imaging.RGB, maxDist float64, q Quantizer) []int {
	maxSq := maxDist * maxDist
	seen := make(map[int]bool)
	var out []int
	for r := 0; r < 256; r += 8 {
		for g := 0; g < 256; g += 8 {
			for b := 0; b < 256; b += 8 {
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
	if bin := q.Bin(c); !seen[bin] {
		out = append(out, bin)
	}
	sort.Ints(out)
	return out
}

// TestBinsNearMatchesFullLattice pins that sampling only the box c ±
// maxDist finds exactly the bins the whole lattice does.
func TestBinsNearMatchesFullLattice(t *testing.T) {
	for _, q := range []Quantizer{NewUniformRGB(4), NewUniformRGB(8), NewUniformHSV(18, 3, 3)} {
		for _, name := range ColorNames() {
			c := NamedColors[name]
			for _, radius := range []float64{0, 8, 64, 500} {
				got, want := BinsNear(c, radius, q), binsNearFullLattice(c, radius, q)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s radius %v: BinsNear %v, full lattice %v", q.Name(), name, radius, got, want)
				}
			}
		}
	}
}

func TestFamilyForName(t *testing.T) {
	q := NewUniformRGB(4)
	bins, err := FamilyForName("red", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) < 2 {
		t.Fatalf("red family suspiciously small: %v", bins)
	}
	if _, err := FamilyForName("nope", q); err == nil {
		t.Fatal("unknown family accepted")
	}
}
