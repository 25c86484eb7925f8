package editops

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/imaging"
)

func sampleSequence() *Sequence {
	return &Sequence{
		BaseID: 77,
		Ops: []Op{
			Define{Region: imaging.R(-3, 0, 12, 9)},
			Combine{Weights: [9]float64{1, 2, 1, 2, 4, 2, 1, 2, 1}},
			Modify{Old: imaging.RGB{R: 255, G: 0, B: 0}, New: imaging.RGB{R: 0, G: 0, B: 255}},
			Mutate{M: [9]float64{1, 0, 5.5, 0, 1, -2, 0, 0, 1}},
			Merge{Target: NullTarget},
			Merge{Target: 12, XP: -4, YP: 7},
		},
	}
}

func sequencesEqual(a, b *Sequence) bool {
	if a.BaseID != b.BaseID || len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			return false
		}
	}
	return true
}

func TestBinaryRoundTrip(t *testing.T) {
	s := sampleSequence()
	data := EncodeBinary(s)
	got, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if !sequencesEqual(s, got) {
		t.Fatalf("round trip mismatch:\n%v\n%v", s, got)
	}
}

// TestNullMergeDropsPlacement: a null-target Merge has no placement, so
// both decoders read one written with a placement as Merge{Target:
// NullTarget}, which is what FormatText and EncodeBinary write back.
func TestNullMergeDropsPlacement(t *testing.T) {
	placed := &Sequence{BaseID: 1, Ops: []Op{Merge{Target: NullTarget, XP: 3, YP: -2}}}
	fromBinary, err := DecodeBinary(EncodeBinary(placed))
	if err != nil {
		t.Fatal(err)
	}
	fromText, err := ParseText(strings.NewReader("base 1\nmerge 0 3 -2\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := &Sequence{BaseID: 1, Ops: []Op{Merge{Target: NullTarget}}}
	for name, got := range map[string]*Sequence{"binary": fromBinary, "text": fromText} {
		if !sequencesEqual(got, want) {
			t.Errorf("%s: decoded %v, want %v", name, got.Ops, want.Ops)
		}
	}
}

func TestBinaryRoundTripEmptyOps(t *testing.T) {
	s := &Sequence{BaseID: 1}
	got, err := DecodeBinary(EncodeBinary(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.BaseID != 1 || len(got.Ops) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func randomOps(rng *rand.Rand, n int) []Op {
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0:
			r := imaging.R(rng.Intn(64)-8, rng.Intn(64)-8, rng.Intn(64), rng.Intn(64)).Canon()
			ops = append(ops, Define{Region: r})
		case 1:
			var c Combine
			for j := range c.Weights {
				c.Weights[j] = float64(rng.Intn(5))
			}
			c.Weights[4] = 1 + float64(rng.Intn(4))
			ops = append(ops, c)
		case 2:
			ops = append(ops, Modify{
				Old: imaging.RGB{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))},
				New: imaging.RGB{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))},
			})
		case 3:
			ops = append(ops, Mutate{M: [9]float64{1, 0, float64(rng.Intn(9) - 4), 0, 1, float64(rng.Intn(9) - 4), 0, 0, 1}})
		default:
			if rng.Intn(2) == 0 {
				ops = append(ops, Merge{Target: NullTarget})
			} else {
				ops = append(ops, Merge{Target: uint64(rng.Intn(100) + 1), XP: rng.Intn(20) - 10, YP: rng.Intn(20) - 10})
			}
		}
	}
	return ops
}

func TestBinaryRoundTripRandomSequences(t *testing.T) {
	f := func(seed int64, baseID uint64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &Sequence{BaseID: baseID, Ops: randomOps(rng, int(n)%20)}
		got, err := DecodeBinary(EncodeBinary(s))
		return err == nil && sequencesEqual(s, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeBinaryErrors(t *testing.T) {
	valid := EncodeBinary(sampleSequence())
	cases := map[string][]byte{
		"empty":      {},
		"truncated":  valid[:len(valid)-3],
		"bad kind":   append(append([]byte{}, 1, 1), 99),
		"trailing":   append(append([]byte{}, valid...), 0xff),
		"huge count": {1, 0xff, 0xff, 0xff, 0xff, 0x0f},
	}
	for name, data := range cases {
		if _, err := DecodeBinary(data); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	s := sampleSequence()
	text := FormatText(s)
	got, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse:\n%s\n%v", text, err)
	}
	if !sequencesEqual(s, got) {
		t.Fatalf("text round trip mismatch:\n%s", text)
	}
}

func TestParseTextCommentsAndBlanks(t *testing.T) {
	src := `
# an edited flag
base 9

define 0 0 10 10
# swap colors
modify #ff0000 #00ff00
`
	s, err := ParseText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.BaseID != 9 || len(s.Ops) != 2 {
		t.Fatalf("parsed %+v", s)
	}
}

func TestParseTextErrors(t *testing.T) {
	cases := []string{
		"define 0 0 1 1\n",                    // missing base
		"base 1\nbase 2\n",                    // duplicate base
		"base x\n",                            // bad id
		"base 1\nfrobnicate 1\n",              // unknown op
		"base 1\ndefine 1 2 3\n",              // arity
		"base 1\nmodify #ff00 #0f0f0f",        // short color
		"base 1\nmodify red blue\n",           // non-hex color
		"base 1\ncombine 1 2 3\n",             // arity
		"base 1\nmutate 1 2\n",                // arity
		"base 1\nmerge 1 2\n",                 // merge arity
		"base 1\nmerge -5 1 1\n",              // negative target
		"base 1\ndefine 1 2 3 oops\n",         // bad int
		"base 1\ncombine 1 1 1 1 x 1 1 1 1\n", // bad float
	}
	for i, src := range cases {
		if _, err := ParseText(strings.NewReader(src)); err == nil {
			t.Errorf("case %d parsed without error: %q", i, src)
		}
	}
}

func TestParseHexColor(t *testing.T) {
	c, err := ParseHexColor("#CC00Ff")
	if err != nil {
		t.Fatal(err)
	}
	if c != (imaging.RGB{R: 0xcc, G: 0x00, B: 0xff}) {
		t.Fatalf("parsed %v", c)
	}
	if _, err := ParseHexColor("zzzzzz"); err == nil {
		t.Fatal("bad hex accepted")
	}
}

func TestTextFormatIsStable(t *testing.T) {
	// Formatting a parsed sequence must reproduce the same text.
	s := sampleSequence()
	text := FormatText(s)
	got, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if FormatText(got) != text {
		t.Fatalf("format not stable:\n%s\n%s", text, FormatText(got))
	}
}
