package query

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/colorspace"
)

// ParseRange parses the natural query phrasing the paper uses as its
// running example. Accepted forms (case-insensitive):
//
//	at least 25% blue
//	at most 40% red
//	between 10% and 30% green
//	10%..30% green
//
// Percentages may carry a '%' sign and decimals ("12.5%").
func ParseRange(s string, q colorspace.Quantizer) (Range, error) {
	fields := strings.Fields(strings.ToLower(strings.TrimSpace(s)))
	fail := func(msg string, a ...any) (Range, error) {
		return Range{}, fmt.Errorf("query: cannot parse %q: %s", s, fmt.Sprintf(msg, a...))
	}
	if len(fields) == 0 {
		return fail("empty query")
	}
	build := func(lo, hi float64, color string) (Range, error) {
		r, err := NewRangeForColor(color, lo, hi, q)
		if err != nil {
			return fail("%v", err)
		}
		return r, nil
	}
	switch {
	case len(fields) == 4 && fields[0] == "at" && fields[1] == "least":
		p, err := parsePct(fields[2])
		if err != nil {
			return fail("%v", err)
		}
		return build(p, 1, fields[3])
	case len(fields) == 4 && fields[0] == "at" && fields[1] == "most":
		p, err := parsePct(fields[2])
		if err != nil {
			return fail("%v", err)
		}
		return build(0, p, fields[3])
	case len(fields) == 5 && fields[0] == "between" && fields[2] == "and":
		lo, err := parsePct(fields[1])
		if err != nil {
			return fail("%v", err)
		}
		hi, err := parsePct(fields[3])
		if err != nil {
			return fail("%v", err)
		}
		return build(lo, hi, fields[4])
	case len(fields) == 2 && strings.Contains(fields[0], ".."):
		parts := strings.SplitN(fields[0], "..", 2)
		lo, err := parsePct(parts[0])
		if err != nil {
			return fail("%v", err)
		}
		hi, err := parsePct(parts[1])
		if err != nil {
			return fail("%v", err)
		}
		return build(lo, hi, fields[1])
	default:
		return fail("expected 'at least P%% color', 'at most P%% color', 'between P%% and Q%% color', or 'P%%..Q%% color'")
	}
}

// parsePct parses "25", "25%", or "12.5%" into a fraction in [0,1].
func parsePct(s string) (float64, error) {
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("percentage %q: %v", s, err)
	}
	if !(v >= 0 && v <= 100) { // NaN fails both comparisons
		return 0, fmt.Errorf("percentage %v outside [0,100]", v)
	}
	return v / 100, nil
}
