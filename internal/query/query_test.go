package query

import (
	"math"
	"testing"

	"repro/internal/colorspace"
	"repro/internal/histogram"
	"repro/internal/imaging"
)

var q4 = colorspace.NewUniformRGB(4)

func TestRangeValidate(t *testing.T) {
	ok := Range{Bin: 3, PctMin: 0.1, PctMax: 0.5}
	if err := ok.Validate(64); err != nil {
		t.Fatal(err)
	}
	bad := []Range{
		{Bin: -1, PctMin: 0, PctMax: 1},
		{Bin: 64, PctMin: 0, PctMax: 1},
		{Bin: 0, PctMin: -0.1, PctMax: 0.5},
		{Bin: 0, PctMin: 0, PctMax: 1.1},
		{Bin: 0, PctMin: 0.6, PctMax: 0.5},
		{Bin: 0, PctMin: math.NaN(), PctMax: 0.5},
		{Bin: 0, PctMin: 0, PctMax: math.NaN()},
	}
	for i, r := range bad {
		if err := r.Validate(64); err == nil {
			t.Errorf("case %d validated: %+v", i, r)
		}
	}
}

func TestMatchesExact(t *testing.T) {
	img := imaging.NewFilled(10, 10, imaging.RGB{R: 0, G: 51, B: 204}) // "blue"
	imaging.FillRect(img, imaging.R(0, 0, 10, 5), imaging.RGB{R: 255, G: 255, B: 255})
	h := histogram.Extract(img, q4)
	blueBin := q4.Bin(imaging.RGB{R: 0, G: 51, B: 204})
	if !(Range{Bin: blueBin, PctMin: 0.25, PctMax: 0.75}).MatchesExact(h) {
		t.Fatal("50% blue image rejected by [25%,75%]")
	}
	if (Range{Bin: blueBin, PctMin: 0.6, PctMax: 1}).MatchesExact(h) {
		t.Fatal("50% blue image accepted by [60%,100%]")
	}
	// Boundary inclusivity.
	if !(Range{Bin: blueBin, PctMin: 0.5, PctMax: 0.5}).MatchesExact(h) {
		t.Fatal("exact boundary rejected")
	}
}

func TestNewRangeForColor(t *testing.T) {
	r, err := NewRangeForColor("blue", 0.25, 1, q4)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := colorspace.BinForName("blue", q4)
	if r.Bin != want || r.PctMin != 0.25 || r.PctMax != 1 {
		t.Fatalf("range %+v", r)
	}
	if _, err := NewRangeForColor("nope", 0, 1, q4); err == nil {
		t.Fatal("unknown color accepted")
	}
	if _, err := NewRangeForColor("blue", 0.9, 0.1, q4); err == nil {
		t.Fatal("inverted interval accepted")
	}
}

func TestParseRangeForms(t *testing.T) {
	blueBin, _ := colorspace.BinForName("blue", q4)
	cases := []struct {
		in     string
		lo, hi float64
	}{
		{"at least 25% blue", 0.25, 1},
		{"At Least 25 Blue", 0.25, 1},
		{"at most 40% blue", 0, 0.40},
		{"between 10% and 30% blue", 0.10, 0.30},
		{"10%..30% blue", 0.10, 0.30},
		{"at least 12.5% blue", 0.125, 1},
	}
	for _, c := range cases {
		r, err := ParseRange(c.in, q4)
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if r.Bin != blueBin || math.Abs(r.PctMin-c.lo) > 1e-12 || math.Abs(r.PctMax-c.hi) > 1e-12 {
			t.Errorf("%q parsed to %+v", c.in, r)
		}
	}
}

func TestParseRangeErrors(t *testing.T) {
	bad := []string{
		"",
		"gimme blue",
		"at least blue",
		"at least 120% blue",
		"at least 25% chartreuse-ish",
		"between 10% and blue",
		"between 40% and 10% blue", // inverted
		"10%..x blue",
	}
	for _, s := range bad {
		if _, err := ParseRange(s, q4); err == nil {
			t.Errorf("%q parsed without error", s)
		}
	}
}

func TestMetricDistance(t *testing.T) {
	a := histogram.Extract(imaging.NewFilled(4, 4, imaging.RGB{R: 255}), q4)
	b := histogram.Extract(imaging.NewFilled(4, 4, imaging.RGB{B: 255}), q4)
	for _, m := range []Metric{MetricL1, MetricL2, MetricIntersection} {
		if d := m.Distance(a, a); d != 0 {
			t.Errorf("%s self distance %v", m, d)
		}
		if d := m.Distance(a, b); d <= 0 {
			t.Errorf("%s cross distance %v", m, d)
		}
	}
	if MetricL1.String() != "l1" || MetricIntersection.String() != "intersection" {
		t.Error("metric names wrong")
	}
}

func TestKNNValidate(t *testing.T) {
	h := histogram.New(4)
	if err := (KNN{Target: h, K: 3}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (KNN{Target: nil, K: 3}).Validate(); err == nil {
		t.Fatal("nil target accepted")
	}
	if err := (KNN{Target: h, K: 0}).Validate(); err == nil {
		t.Fatal("k=0 accepted")
	}
	if err := (KNN{Target: h, K: 1, Metric: Metric(9)}).Validate(); err == nil {
		t.Fatal("bad metric accepted")
	}
}
