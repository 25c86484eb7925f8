package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/obs"
)

// encodeColumns is the column encoder applied to a whole Answer, the way the
// server composes it.
func encodeColumns(t testing.TB, a *Answer) []byte {
	t.Helper()
	b, err := AppendColumnsEnd(AppendColumns(nil, a.IDs, rowsOf(a.Objects)), &a.Stats, a.Trace)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// encodeColumnList is a column frame of a bare object list, as GET
// /v1/objects writes it.
func encodeColumnList(t testing.TB, objs []Object) []byte {
	t.Helper()
	b, err := AppendColumnsEnd(AppendColumns(nil, answerOf(objs...).IDs, rowsOf(objs)), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkColumns is the equivalence contract on one answer the frame can
// carry: its frame decodes to what json.Unmarshal makes of its JSON, and its
// objects as a list frame to what json.Unmarshal makes of theirs.
func checkColumns(t testing.TB, a *Answer) {
	t.Helper()
	js := encodeAnswer(t, a)
	var want, got Answer
	if err := json.Unmarshal(js, &want); err != nil {
		t.Fatalf("JSON %s: %v", js, err)
	}
	frame := encodeColumns(t, a)
	if err := DecodeColumns(frame, &got); err != nil {
		t.Fatalf("frame of %s: %v", js, err)
	}
	sameAnswer(t, js, &got, &want)

	var wantList []Object
	if err := json.Unmarshal(AppendObjects(nil, a.IDs, rowsOf(a.Objects)), &wantList); err != nil {
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

// sameAnswer is reflect.DeepEqual except on the trace, whose decoder mints
// span ids and sequence numbers: there the two must agree on presence and
// on the phases and counters they rebuilt.
func sameAnswer(t testing.TB, data []byte, got, want *Answer) {
	t.Helper()
	gt, wt := got.Trace, want.Trace
	g, w := *got, *want
	g.Trace, w.Trace = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("decoding %q\n got %+v\nwant %+v", data, g, w)
	}
	if (gt == nil) != (wt == nil) {
		t.Fatalf("decoding %q: trace present %v, want %v", data, gt != nil, wt != nil)
	}
	if gt != nil && (!reflect.DeepEqual(gt.Counters(), wt.Counters()) || len(gt.Phases()) != len(wt.Phases())) {
		t.Fatalf("decoding %q: traces differ", data)
	}
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
		"descending":    answerOf(Object{ID: 9, Kind: "binary"}, Object{ID: 3, Kind: "binary"}, Object{ID: math.MaxUint64, Kind: "binary"}),
		"extremes":      {IDs: []uint64{math.MaxUint64}, Objects: []Object{{ID: math.MaxUint64, Kind: "edited", Name: "x", BaseID: math.MaxUint64, Ops: math.MaxInt, Widening: ptr(true)}}, Stats: AnswerStats{math.MinInt, -1, math.MaxInt, 0}},
		"awkward names": answerOf(Object{ID: 1, Kind: "binary", Name: "bad utf8 \xff\xfe \xc3"}, Object{ID: 2, Kind: "binary", Name: "\xed\xa0\x80 surrogate"}, Object{ID: 3, Kind: "binary", Name: "<&>\"\\ \x00"}, Object{ID: 4, Kind: "binary", Name: "� é 日本"}),
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

// TestEncodersRefuseUnknownKind: a row of a kind that is none of the three
// is a bug in its caller, and neither encoder writes it as something else.
func TestEncodersRefuseUnknownKind(t *testing.T) {
	row := func(int) (Kind, uint64, uint64, string) { return KindEditedWidening + 1, 1, 1, "x" }
	for name, encode := range map[string]func(){
		"json":    func() { AppendObjects(nil, []uint64{1}, row) },
		"columns": func() { AppendColumns(nil, []uint64{1}, row) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a row of kind %d encoded", name, KindEditedWidening+1)
				}
			}()
			encode()
		}()
	}
}

// TestDecodeColumnsHostile: frames no server writes. Each is refused with
// the FrameError its check gives, and nothing in it is trusted to size an
// allocation.
func TestDecodeColumnsHostile(t *testing.T) {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	b := func(bs ...byte) []byte { return bs }
	// Two rows: a 4×4 binary "b" (id 7) and an edited "e" of it (id 9).
	objects := cat(b(0, 3, 7, byte(KindBinary), 4, 4, 1, 'b', 2, byte(KindEdited), 7, 2, 1, 'e'))
	stats := b(2, 0, 0, 0) // binaries_checked 1, zig-zag
	valid := cat(objects, b(tailStats), stats)
	trace, err := json.Marshal(obs.NewTrace())
	if err != nil {
		t.Fatal(err)
	}
	traced := cat(objects, b(tailTrace), stats, uv(uint64(len(trace))), trace)
	for _, frame := range [][]byte{valid, traced} {
		var a Answer
		if err := DecodeColumns(frame, &a); err != nil || len(a.Objects) != 2 || a.Objects[1].Name != "e" || a.Stats.BinariesChecked != 1 || (a.Trace != nil) != (len(frame) > len(valid)) {
			t.Fatalf("the valid frame % x decodes to %+v, %v", frame, a, err)
		}
	}
	cases := []struct {
		name, reason string
		frame        []byte
	}{
		{"empty", FrameTruncated, nil},
		{"cut inside a varint", FrameTruncated, b(0, 0x80)},
		{"cut before the kinds", FrameTruncated, cat(b(0, 2), uv(1<<35))},
		{"tail past the end", FrameTruncated, valid[:len(valid)-1]},
		{"trace length past the frame", FrameTruncated, cat(objects, b(tailTrace), stats, uv(uint64(len(trace))+1), trace)},
		{"varint past 64 bits", FrameOverlong, cat(b(0), bytes.Repeat(b(0xff), 10), b(1))},
		{"varint padded with a zero group", FrameOverlong, b(0, 0x82, 0x00)},
		{"trailing bytes", FrameTrailing, cat(valid, b(0))},
		{"unknown header flag", FrameHeader, cat(b(2), valid[1:])},
		{"count the bytes cannot hold", FrameCount, cat(b(0), uv(1<<40), bytes.Repeat(b(1), 64))},
		{"id delta overflows", FrameIDOverflow, cat(b(0, 3), uv(math.MaxUint64), b(byte(KindBinary), 0, 0, 0, 1, byte(KindBinary), 0, 0, 0, tailNone))},
		{"unknown kind byte", FrameKind, cat(b(0, 3, 7, 3), valid[4:])},
		{"width past int", FrameRange, cat(b(0, 2, 7, byte(KindBinary)), uv(math.MaxInt+1), b(1, 0, tailNone))},
		{"name length past the end", FrameNamePastEnd, cat(valid[:12], uv(200), valid[13:])},
		{"unknown tail byte", FrameTail, cat(objects, b(tailTrace+1), stats)},
		{"tail that is not an answer", FrameTail, cat(objects, b(tailTrace), stats, uv(14), []byte(`{"counters":5}`))},
		{"trace that is not JSON", FrameTail, cat(objects, b(tailTrace), stats, uv(12), []byte(`{"counters":`))},
	}
	if strconv.IntSize == 32 {
		// Only where int is narrower than the 64 bits a varint holds.
		cases = append(cases, struct {
			name, reason string
			frame        []byte
		}{"stat past int", FrameRange, cat(objects, b(tailStats), binary.AppendVarint(nil, math.MaxInt32+1), b(0, 0, 0))})
	}
	for _, tc := range cases {
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
			if fe.Err != nil {
				return // a list's trace is not read
			}
			if _, err := DecodeColumnObjects(tc.frame); !errors.As(err, &fe) || fe.Reason != tc.reason {
				t.Fatalf("DecodeColumnObjects(% x) = %v, want a FrameError %q", tc.frame, err, tc.reason)
			}
		})
	}
}

// TestDecodeHostile: JSON no server writes, carried as a frame's trace, the
// one JSON a frame holds. The trace is read whole by encoding/json: refused
// with FrameTail exactly where json.Unmarshal refuses it as a trace — a
// second document and trailing garbage included — and otherwise decoded to
// the same trace. An object list steps over it, whatever it holds.
func TestDecodeHostile(t *testing.T) {
	page := string(encodeAnswer(t, paperMixAnswer(3)))
	objects := []byte{0, 3, 7, byte(KindBinary), 4, 4, 1, 'b', 2, byte(KindEdited), 7, 2, 1, 'e'}
	for _, tc := range []struct{ name, body string }{
		{"unterminated string", `{"ids":[1],"objects":[{"id":1,"kind":"binary","name":"x}]}`},
		{"trailing comma in ids", `{"ids":[1,]}`},
		{"leading zero", `{"ids":[01]}`},
		{"fraction for an id", `{"ids":[1.5]}`},
		{"exponent for an id", `{"ids":[1e3]}`},
		{"negative id", `{"ids":[-1]}`},
		{"21-digit id", `{"ids":[100000000000000000000]}`},
		{"uint64 overflow by one", `{"ids":[18446744073709551616]}`},
		{"width overflow", `{"objects":[{"id":1,"width":9223372036854775808}]}`},
		{"raw control character", "{\"objects\":[{\"id\":1,\"name\":\"a\x01b\"}]}"},
		{"raw newline in a key", "{\"i\nds\":[1]}"},
		{"bad escape", `{"objects":[{"name":"\q"}]}`},
		{"trailing garbage", page + "x"},
		{"second document", page + page},
		{"cut short after a key", `{"ids":`},
		{"cut short in ids", `{"ids":[1,2`},
		{"missing colon", `{"ids"[1]}`},
		{"missing comma", `{"ids":[1]"objects":null}`},
		{"string for ids", `{"ids":"1"}`},
		{"object in objects is an array", `{"objects":[[]]}`},
		{"stats of the wrong type", `{"stats":5}`},
		{"malformed unknown member", `{"extra":{"a":[1,}}`},
		{"well-bracketed malformed unknown member", `{"extra":{"a":[1,]}}`},
		{"malformed unknown member of an object", `{"objects":[{"x":[1,]}]}`},
		{"misspelt literal", `{"extra":tru}`},
		{"mismatched brackets in unknown member", `{"extra":[}`},
		{"not an object", `[1]`},
		{"empty", ``},
		{"max uint64", `{"ids":[18446744073709551615]}`},
		{"white space everywhere", " {\n\t\"ids\" : [ 1 , 2 ] ,\r\n \"objects\" : [ { \"id\" : 1 } , { } ] } \n"},
		{"unknown nested members", `{"ids":[1],"extra":{"a":[1,{"b":"]}"}],"c":null},"objects":[{"id":1,"more":[[],{}],"x":"\"","y":1e3,"z":null}],"n":-0.5}`},
		{"widening null", `{"objects":[{"id":1,"widening":null},{"id":2,"widening":false}]}`},
		{"null members", `{"ids":null,"objects":null,"stats":null,"trace":null}`},
		{"null fields", `{"objects":[{"id":null,"kind":null,"name":null,"width":null,"script":null}]}`},
		{"null element", `{"ids":[null],"objects":[null]}`},
		{"top-level null", `null`},
		{"escapes", `{"objects":[{"name":"\u00e9\n\"\\\/\ud83d\ude00","kind":"\u0062inary"}]}`},
		{"lone surrogate", `{"objects":[{"name":"\ud800"}]}`},
		{"escaped key", `{"\u0069ds":[3]}`},
		{"case-folded keys", `{"IDS":[3],"Objects":[{"ID":4,"BASE_ID":5}],"STATS":{"Edited_Walked":6}}`},
		{"unicode-folded keys", `{"id` + "\u017f" + `":[3],"objects":[{"` + "\u212a" + `ind":"binary"}]}`},
		{"duplicate members", `{"ids":[1,2],"ids":[3],"objects":[{"id":1,"id":2}],"objects":[{"name":"x"}]}`},
		{"duplicate objects", `{"objects":[{"id":1,"name":"a"},{"id":5}],"objects":[{"name":"x"}]}`},
		{"duplicate widening", `{"objects":[{"widening":true,"widening":null}]}`},
		{"duplicate under folding", `{"ids":[1,2],"Ids":null}`},
		{"objects before ids", `{"objects":[{"id":1,"widening":true},{"id":2,"widening":false}],"ids":[1,2]}`},
		{"more objects than ids", `{"ids":[1],"objects":[{"id":1,"widening":true},{"id":2,"widening":false},{"id":3,"widening":true}]}`},
		{"negative int field", `{"objects":[{"width":-3}]}`},
		{"empty arrays", `{"ids":[],"objects":[]}`},
		{"old peer trace without spans", `{"trace":{"phases":[{"name":"hydrate","duration_us":5}],"counters":{"images_returned":2}}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want Answer
			if err := DecodeColumns(slices.Concat(objects, []byte{tailStats, 2, 0, 0, 0}), &want); err != nil {
				t.Fatal(err)
			}
			wantErr := json.Unmarshal([]byte(tc.body), &want.Trace)
			frame := slices.Concat(objects, []byte{tailTrace, 2, 0, 0, 0}, binary.AppendUvarint(nil, uint64(len(tc.body))), []byte(tc.body))
			var got Answer
			err := DecodeColumns(frame, &got)
			var fe *FrameError
			switch {
			case wantErr != nil && (!errors.As(err, &fe) || fe.Reason != FrameTail || fe.Err == nil):
				t.Fatalf("DecodeColumns = %v, want a FrameError %q: encoding/json refuses the trace: %v", err, FrameTail, wantErr)
			case wantErr != nil && !reflect.DeepEqual(got, Answer{}):
				t.Fatalf("a refused frame left %+v", got)
			case wantErr == nil && err != nil:
				t.Fatalf("DecodeColumns = %v, encoding/json takes the trace", err)
			case wantErr == nil:
				sameAnswer(t, frame, &got, &want)
			}
			if objs, err := DecodeColumnObjects(frame); err != nil || len(objs) != 2 {
				t.Fatalf("as a list: %d objects, %v", len(objs), err)
			}
		})
	}
}

// checkColumnBytes is the fuzzer's arm B: arbitrary bytes read as a column
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

// TestDecodeColumnsIntoUsed: a decode starts from a zero Answer, as a JSON
// read into a reset Answer does, whatever the Answer held.
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
