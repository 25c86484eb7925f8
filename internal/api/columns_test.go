package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// encodeColumns is the column encoder applied to a whole Answer, the way the
// server composes it.
func encodeColumns(t testing.TB, a *Answer) []byte {
	t.Helper()
	b, err := AppendColumns(nil, a.IDs, at(a.Objects))
	if err != nil {
		t.Fatal(err)
	}
	if b, err = AppendColumnsEnd(b, &a.Stats, a.Trace); err != nil {
		t.Fatal(err)
	}
	return b
}

// encodeColumnList is a column frame of a bare object list, as GET
// /v1/objects writes it.
func encodeColumnList(t testing.TB, objs []Object) []byte {
	t.Helper()
	ids := make([]uint64, len(objs))
	for i, o := range objs {
		ids[i] = o.ID
	}
	b, err := AppendColumns(nil, ids, at(objs))
	if err != nil {
		t.Fatal(err)
	}
	b, _ = AppendColumnsEnd(b, nil, nil)
	return b
}

// checkColumns is the equivalence contract on one answer the frame can
// carry: its frame decodes to what DecodeAnswer makes of its JSON, and its
// objects as a list frame to what DecodeObjects makes of theirs.
func checkColumns(t testing.TB, a *Answer) {
	t.Helper()
	js := encodeAnswer(t, a)
	var want, got Answer
	if err := DecodeAnswer(js, &want); err != nil {
		t.Fatalf("JSON %s: %v", js, err)
	}
	frame := encodeColumns(t, a)
	if err := DecodeColumns(frame, &got); err != nil {
		t.Fatalf("frame of %s: %v", js, err)
	}
	sameAnswer(t, js, &got, &want)

	wantList, err := DecodeObjects(AppendObjects(nil, len(a.Objects), at(a.Objects)))
	if err != nil {
		t.Fatal(err)
	}
	gotList, err := DecodeColumnObjects(encodeColumnList(t, a.Objects))
	if err != nil {
		t.Fatalf("list frame of %s: %v", js, err)
	}
	if !reflect.DeepEqual(gotList, wantList) {
		t.Fatalf("list of %s\n got %+v\nwant %+v", js, gotList, wantList)
	}
}

// carried turns a fuzz-built answer into one the frame carries, as the
// server's are: each object takes its id from ids, an object with a widening
// flag is edited and one without is binary, and nothing has a script.
func carried(a *Answer) *Answer {
	for i := range a.Objects {
		o := &a.Objects[i]
		o.ID, o.Script = a.IDs[i], ""
		if o.Widening != nil {
			o.Kind, o.W, o.H = "edited", 0, 0
		} else {
			o.Kind, o.BaseID, o.Ops = "binary", 0, 0
		}
	}
	return a
}

// TestColumnsMatchJSON: every answer shape the server writes, in both
// representations, decodes to the same Answer.
func TestColumnsMatchJSON(t *testing.T) {
	tr := obs.NewTrace()
	tr.Phase("hydrate")()
	tr.Count(obs.TImagesReturned, 3)
	for name, a := range map[string]*Answer{
		"nil ids":       {Stats: AnswerStats{1, 2, 3, 4}},
		"empty ids":     {IDs: []uint64{}},
		"traced":        {IDs: []uint64{7}, Objects: []Object{{ID: 7, Kind: "binary", Name: "b", W: 4, H: 4}}, Trace: tr},
		"paper mix":     paperMixAnswer(20),
		"descending":    carried(&Answer{IDs: []uint64{9, 3, math.MaxUint64}, Objects: make([]Object, 3)}),
		"extremes":      {IDs: []uint64{math.MaxUint64}, Objects: []Object{{ID: math.MaxUint64, Kind: "edited", Name: "x", BaseID: math.MaxUint64, Ops: math.MaxInt, Widening: ptr(true)}}, Stats: AnswerStats{math.MinInt, -1, math.MaxInt, 0}},
		"awkward names": carried(&Answer{IDs: []uint64{1, 2, 3, 4}, Objects: []Object{{Name: "bad utf8 \xff\xfe \xc3"}, {Name: "\xed\xa0\x80 surrogate"}, {Name: "<&>\"\\ \x00"}, {Name: "� é 日本"}}}),
	} {
		t.Run(name, func(t *testing.T) { checkColumns(t, a) })
	}
	var got Answer
	if err := DecodeColumns(encodeColumns(t, paperMixAnswer(20)), &got); err != nil {
		t.Fatal(err)
	}
	if got.Objects[1].Widening == got.Objects[2].Widening {
		t.Error("two objects share one widening flag")
	}
}

// TestAppendColumnsRefuses: an object the frame cannot carry is an error,
// never a frame that decodes to something else.
func TestAppendColumnsRefuses(t *testing.T) {
	for _, o := range []Object{
		{ID: 2, Kind: "binary"},
		{ID: 1, Kind: "unknown"},
		{ID: 1, Kind: "binary", W: -1},
		{ID: 1, Kind: "binary", Widening: ptr(true)},
		{ID: 1, Kind: "binary", Ops: 1},
		{ID: 1, Kind: "edited"},
		{ID: 1, Kind: "edited", W: 3, Widening: ptr(false)},
		{ID: 1, Kind: "edited", Ops: -1, Widening: ptr(false)},
		{ID: 1, Kind: "edited", Widening: ptr(false), Script: "base 1\n"},
	} {
		if _, err := AppendColumns(nil, []uint64{1}, at([]Object{o})); err == nil {
			t.Errorf("%+v encoded", o)
		}
	}
}

// TestDecodeColumnsHostile: frames no server writes. Each is refused with
// the FrameError its check gives, and nothing in it is trusted to size an
// allocation.
func TestDecodeColumnsHostile(t *testing.T) {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	b := func(bs ...byte) []byte { return bs }
	tail := []byte(`{"stats":{"binaries_checked":1,"edited_walked":0,"ops_evaluated":0,"edited_skipped":0}}`)
	// Two objects: a 4×4 binary "b" (id 7) and an edited "e" of it (id 9).
	objects := cat(b(0, 3, 7, 2, kindBinary, kindEdited, 4, 4, 7, 2, 1, 1), []byte("be"))
	valid := cat(objects, uv(uint64(len(tail))), tail)
	var a Answer
	if err := DecodeColumns(valid, &a); err != nil || len(a.Objects) != 2 || a.Objects[1].Name != "e" || a.Stats.BinariesChecked != 1 {
		t.Fatalf("the valid frame decodes to %+v, %v", a, err)
	}
	for _, tc := range []struct {
		name, reason string
		frame        []byte
	}{
		{"empty", FrameTruncated, nil},
		{"cut inside a varint", FrameTruncated, b(0, 0x80)},
		{"cut before the kinds", FrameTruncated, cat(b(0, 2), uv(1<<35))},
		{"tail past the end", FrameTruncated, valid[:len(valid)-1]},
		{"varint past 64 bits", FrameOverlong, cat(b(0), bytes.Repeat(b(0xff), 10), b(1))},
		{"varint padded with a zero group", FrameOverlong, b(0, 0x82, 0x00)},
		{"trailing bytes", FrameTrailing, cat(valid, b(0))},
		{"unknown header flag", FrameHeader, cat(b(2), valid[1:])},
		{"count the bytes cannot hold", FrameCount, cat(b(0), uv(1<<40), bytes.Repeat(b(1), 64))},
		{"id delta overflows", FrameIDOverflow, cat(b(0, 3), uv(math.MaxUint64), b(1, 0, 0, 1, 1, 1, 1, 0, 0, 0))},
		{"unknown kind byte", FrameKind, cat(b(0, 3, 7, 2, kindBinary, 3), valid[6:])},
		{"width past int", FrameRange, cat(b(0, 2, 7, kindBinary), uv(math.MaxInt+1), b(1, 0, 0))},
		{"name length past the blob", FrameNamePastEnd, cat(b(0, 3, 7, 2, kindBinary, kindEdited, 4, 4, 7, 2, 1), uv(200), valid[12:])},
		{"tail that is not an answer", FrameTail, cat(objects, uv(11), []byte(`{"stats":5}`))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var a Answer
			err := DecodeColumns(tc.frame, &a)
			var fe *FrameError
			if !errors.Is(err, ErrFrame) || !errors.As(err, &fe) || fe.Reason != tc.reason {
				t.Fatalf("DecodeColumns(% x) = %v, want a FrameError %q", tc.frame, err, tc.reason)
			}
			if !reflect.DeepEqual(a, Answer{}) {
				t.Fatalf("a refused frame left %+v", a)
			}
			if tc.reason == FrameTail {
				return // a list's tail is not read
			}
			if _, err := DecodeColumnObjects(tc.frame); !errors.As(err, &fe) || fe.Reason != tc.reason {
				t.Fatalf("DecodeColumnObjects(% x) = %v, want a FrameError %q", tc.frame, err, tc.reason)
			}
		})
	}
}

// checkColumnBytes is the fuzzer's arm C: arbitrary bytes read as a column
// frame are refused with a FrameError or decoded into slices the bytes could
// fill, and never panic.
func checkColumnBytes(t *testing.T, data []byte) {
	var a Answer
	if err := DecodeColumns(data, &a); err != nil {
		if !errors.Is(err, ErrFrame) {
			t.Fatalf("DecodeColumns(% x): %v is no FrameError", data, err)
		}
	} else if cap(a.IDs) > len(data) || cap(a.Objects) > len(data)/minColumnBytes {
		t.Fatalf("a %d-byte frame allocated %d ids and %d objects", len(data), cap(a.IDs), cap(a.Objects))
	}
	if _, err := DecodeColumnObjects(data); err != nil && !errors.Is(err, ErrFrame) {
		t.Fatalf("DecodeColumnObjects(% x): %v is no FrameError", data, err)
	}
}

// TestDecodeColumnsIntoUsed: a decode starts from a zero Answer, as
// DecodeAnswer does, whatever the Answer held.
func TestDecodeColumnsIntoUsed(t *testing.T) {
	a := *paperMixAnswer(3)
	if err := DecodeColumns(encodeColumns(t, &Answer{}), &a); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, Answer{}) {
		t.Fatalf("decoded %+v", a)
	}
	var want Answer
	if err := json.Unmarshal(encodeAnswer(t, &Answer{}), &want); err != nil || !reflect.DeepEqual(a, want) {
		t.Fatalf("JSON form decodes to %+v (%v)", want, err)
	}
}
