package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// encodeAnswer is the hand encoder applied to a whole Answer, the way the
// server composes it.
func encodeAnswer(t testing.TB, a *Answer) []byte {
	t.Helper()
	b := AppendAnswerStart(nil, a.IDs)
	b = AppendObjects(b, len(a.Objects), at(a.Objects))
	b, err := AppendAnswerEnd(b, a.Stats, a.Trace)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// paperMixAnswer is an n-object answer in the shape the benchmark's
// paper_mix corpus produces: one 48×32 flag, then four five-operation
// scripts of it, 70 % of them widening.
func paperMixAnswer(n int) *Answer {
	a := &Answer{IDs: make([]uint64, n), Objects: make([]Object, n)}
	wide := []bool{true, false}
	for i := range a.Objects {
		id := uint64(i + 1)
		a.IDs[i] = id
		if i%5 == 0 {
			a.Objects[i] = Object{ID: id, Kind: "binary", Name: fmt.Sprintf("flag-%03d", i/5), W: 48, H: 32}
			continue
		}
		w := &wide[0]
		if i%10 < 3 {
			w = &wide[1]
		}
		a.Objects[i] = Object{ID: id, Kind: "edited", Name: fmt.Sprintf("edit-%05d", i), BaseID: id - uint64(i%5), Ops: 5, Widening: w}
	}
	a.Stats = AnswerStats{BinariesChecked: n / 5, EditedWalked: n / 2, OpsEvaluated: 3 * n, EditedSkipped: n / 4}
	return a
}

// at is the callback AppendObjects takes, over a slice.
func at(objs []Object) func(int) Object { return func(i int) Object { return objs[i] } }

func ptr[T any](v T) *T { return &v }

// awkwardObjects are the values rule 4 is about: everything json.Marshal
// escapes or rewrites, the integer extremes, and every omitempty edge.
func awkwardObjects() []Object {
	return []Object{
		{},
		{ID: math.MaxUint64, Kind: "binary", Name: "plain", W: math.MaxInt, H: 1},
		{ID: 1, Kind: "edited", Name: `quote " backslash \ slash /`, BaseID: math.MaxUint64, Ops: 1, Widening: ptr(false)},
		{ID: 2, Kind: "edited", Name: "<script>&amp;</script>", Widening: ptr(true), Script: "base 1\nmodify ff0000 00ff00\n"},
		{ID: 3, Kind: "k\u212and", Name: "line\u2028sep \u2029 é 日本 \x7f"},
		{ID: 4, Kind: "\x00\x01\x1f", Name: "bad utf8 \xff\xfe \xc3"},
		{ID: 5, Name: "negative", W: -1, H: math.MinInt, Ops: -7},
	}
}

// TestEncoderMatchesMarshal is rule 4: the encoder's bytes are
// json.Marshal's, for single objects, lists and whole answers.
func TestEncoderMatchesMarshal(t *testing.T) {
	for _, o := range awkwardObjects() {
		want, _ := json.Marshal(o)
		if got := AppendObject(nil, &o); !bytes.Equal(got, want) {
			t.Errorf("AppendObject(%+v)\n got %s\nwant %s", o, got, want)
		}
	}
	tr := obs.NewTrace()
	tr.Phase("hydrate")()
	tr.Count(obs.TImagesReturned, 3)
	for _, a := range []*Answer{
		{},
		{IDs: []uint64{}},
		{IDs: []uint64{math.MaxUint64, 0}, Objects: awkwardObjects(), Stats: AnswerStats{1, -2, math.MaxInt, 4}},
		{IDs: []uint64{7}, Trace: tr},
		paperMixAnswer(20),
	} {
		want, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeAnswer(t, a); !bytes.Equal(got, want) {
			t.Errorf("answer\n got %s\nwant %s", got, want)
		}
		want, _ = json.Marshal(a.Objects)
		if got := AppendObjects(nil, len(a.Objects), at(a.Objects)); !bytes.Equal(got, want) {
			t.Errorf("list\n got %s\nwant %s", got, want)
		}
	}
}

// checkDecode holds DecodeAnswer and the forward pass to the reference on one
// body: the verdicts agree, the values are DeepEqual, and the pass accepts
// nothing the reference refuses. It reports whether the pass took the body.
func checkDecode(t testing.TB, data []byte) (fast bool) {
	t.Helper()
	var want Answer
	wantErr := json.Unmarshal(data, &want)

	var got Answer
	gotErr := DecodeAnswer(data, &got)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("DecodeAnswer(%q) err = %v, encoding/json err = %v", data, gotErr, wantErr)
	}
	if wantErr == nil {
		sameAnswer(t, data, &got, &want)
	}

	var viaPass Answer
	p := parser{data: data}
	if !p.answer(&viaPass) || !p.end() {
		return false
	}
	if wantErr != nil {
		t.Fatalf("forward pass accepted %q, encoding/json refuses it: %v", data, wantErr)
	}
	sameAnswer(t, data, &viaPass, &want)
	return true
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

// checkDecodeList is checkDecode for the bare list of GET /v1/objects.
func checkDecodeList(t testing.TB, data []byte) {
	t.Helper()
	var want []Object
	wantErr := json.Unmarshal(data, &want)
	got, gotErr := DecodeObjects(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("DecodeObjects(%q) err = %v, encoding/json err = %v", data, gotErr, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeObjects(%q)\n got %+v\nwant %+v", data, got, want)
	}
	p := parser{data: data}
	if objs, ok := p.objectList(0); ok && p.end() {
		if wantErr != nil {
			t.Fatalf("forward pass accepted list %q, encoding/json refuses it: %v", data, wantErr)
		}
		if !reflect.DeepEqual(objs, want) {
			t.Fatalf("forward pass on list %q\n got %+v\nwant %+v", data, objs, want)
		}
	}
}

// TestDecodeServerForms: every body the encoder produces is decoded by the
// forward pass itself (rule 3) — a fallback there would be silent and five
// times slower.
func TestDecodeServerForms(t *testing.T) {
	tr := obs.NewTrace()
	tr.Phase("hydrate")()
	for _, a := range []*Answer{
		{},
		{IDs: []uint64{}},
		{IDs: []uint64{math.MaxUint64, 0}, Objects: awkwardObjects()[:6], Stats: AnswerStats{1, 2, 3, 4}},
		{IDs: []uint64{7}, Trace: tr},
		paperMixAnswer(20),
	} {
		body := append(encodeAnswer(t, a), '\n')
		if !checkDecode(t, body) {
			t.Errorf("forward pass declined a server-written body: %s", body)
		}
		checkDecodeList(t, AppendObjects(nil, len(a.Objects), at(a.Objects)))
	}
	var got Answer
	if err := DecodeAnswer(append(encodeAnswer(t, paperMixAnswer(20)), '\n'), &got); err != nil {
		t.Fatal(err)
	}
	if got.Objects[1].Widening == got.Objects[2].Widening {
		t.Error("two objects share one widening flag")
	}
}

// TestDecodeHostile: bodies no server writes. Each is refused or decoded
// exactly as encoding/json would, and the forward pass takes none of the
// malformed ones.
func TestDecodeHostile(t *testing.T) {
	page := string(encodeAnswer(t, paperMixAnswer(3)))
	for _, tc := range []struct {
		name, body  string
		valid, fast bool
	}{
		{"unterminated string", `{"ids":[1],"objects":[{"id":1,"kind":"binary","name":"x}]}`, false, false},
		{"trailing comma in ids", `{"ids":[1,]}`, false, false},
		{"leading zero", `{"ids":[01]}`, false, false},
		{"fraction for an id", `{"ids":[1.5]}`, false, false},
		{"exponent for an id", `{"ids":[1e3]}`, false, false},
		{"negative id", `{"ids":[-1]}`, false, false},
		{"21-digit id", `{"ids":[100000000000000000000]}`, false, false},
		{"uint64 overflow by one", `{"ids":[18446744073709551616]}`, false, false},
		{"width overflow", `{"objects":[{"id":1,"width":9223372036854775808}]}`, false, false},
		{"raw control character", "{\"objects\":[{\"id\":1,\"name\":\"a\x01b\"}]}", false, false},
		{"raw newline in a key", "{\"i\nds\":[1]}", false, false},
		{"bad escape", `{"objects":[{"name":"\q"}]}`, false, false},
		{"trailing garbage", page + "x", false, false},
		{"second document", page + page, false, false},
		{"cut short after a key", `{"ids":`, false, false},
		{"cut short in ids", `{"ids":[1,2`, false, false},
		{"missing colon", `{"ids"[1]}`, false, false},
		{"missing comma", `{"ids":[1]"objects":null}`, false, false},
		{"string for ids", `{"ids":"1"}`, false, false},
		{"object in objects is an array", `{"objects":[[]]}`, false, false},
		{"stats of the wrong type", `{"stats":5}`, false, false},
		{"malformed unknown member", `{"extra":{"a":[1,}}`, false, false},
		{"well-bracketed malformed unknown member", `{"extra":{"a":[1,]}}`, false, false},
		{"malformed unknown member of an object", `{"objects":[{"x":[1,]}]}`, false, false},
		{"misspelt literal", `{"extra":tru}`, false, false},
		{"mismatched brackets in unknown member", `{"extra":[}`, false, false},
		{"not an object", `[1]`, false, false},
		{"empty", ``, false, false},

		{"max uint64", `{"ids":[18446744073709551615]}`, true, true},
		{"white space everywhere", " {\n\t\"ids\" : [ 1 , 2 ] ,\r\n \"objects\" : [ { \"id\" : 1 } , { } ] } \n", true, true},
		{"unknown nested members", `{"ids":[1],"extra":{"a":[1,{"b":"]}"}],"c":null},"objects":[{"id":1,"more":[[],{}],"x":"\"","y":1e3,"z":null}],"n":-0.5}`, true, true},
		{"widening null", `{"objects":[{"id":1,"widening":null},{"id":2,"widening":false}]}`, true, true},
		{"null members", `{"ids":null,"objects":null,"stats":null,"trace":null}`, true, true},
		{"null fields", `{"objects":[{"id":null,"kind":null,"name":null,"width":null,"script":null}]}`, true, true},
		{"null element", `{"ids":[null],"objects":[null]}`, true, false},
		{"top-level null", `null`, true, false},
		{"escapes", `{"objects":[{"name":"\u00e9\n\"\\\/\ud83d\ude00","kind":"\u0062inary"}]}`, true, true},
		{"lone surrogate", `{"objects":[{"name":"\ud800"}]}`, true, true},
		{"escaped key", `{"\u0069ds":[3]}`, true, false},
		{"case-folded keys", `{"IDS":[3],"Objects":[{"ID":4,"BASE_ID":5}],"STATS":{"Edited_Walked":6}}`, true, false},
		{"unicode-folded keys", `{"id` + "\u017f" + `":[3],"objects":[{"` + "\u212a" + `ind":"binary"}]}`, true, false},
		{"duplicate members", `{"ids":[1,2],"ids":[3],"objects":[{"id":1,"id":2}],"objects":[{"name":"x"}]}`, true, false},
		{"duplicate objects", `{"objects":[{"id":1,"name":"a"},{"id":5}],"objects":[{"name":"x"}]}`, true, false},
		{"duplicate widening", `{"objects":[{"widening":true,"widening":null}]}`, true, false},
		{"duplicate under folding", `{"ids":[1,2],"Ids":null}`, true, false},
		{"objects before ids", `{"objects":[{"id":1,"widening":true},{"id":2,"widening":false}],"ids":[1,2]}`, true, true},
		{"more objects than ids", `{"ids":[1],"objects":[{"id":1,"widening":true},{"id":2,"widening":false},{"id":3,"widening":true}]}`, true, true},
		{"negative int field", `{"objects":[{"width":-3}]}`, true, false},
		{"empty arrays", `{"ids":[],"objects":[]}`, true, true},
		{"old peer trace without spans", `{"trace":{"phases":[{"name":"hydrate","duration_us":5}],"counters":{"images_returned":2}}}`, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast := checkDecode(t, []byte(tc.body))
			var a Answer
			err := DecodeAnswer([]byte(tc.body), &a)
			if (err == nil) != tc.valid {
				t.Fatalf("DecodeAnswer err = %v, want valid = %v", err, tc.valid)
			}
			if fast != tc.fast {
				t.Fatalf("forward pass took the body: %v, want %v", fast, tc.fast)
			}
			// The same text as the "objects" member's value, when it has one.
			if i := strings.Index(tc.body, `"objects":`); i >= 0 {
				checkDecodeList(t, []byte(strings.TrimSuffix(tc.body[i+len(`"objects":`):], "}")))
			}
		})
	}
}

// TestDecodeDeepNesting: a member nested near encoding/json's 10 000-level
// limit must get the verdict it would get inside its document, where it sits
// one to three levels deeper than when judged alone.
func TestDecodeDeepNesting(t *testing.T) {
	for _, depth := range []int{900, 9997, 9998, 9999, 10000, 10001} {
		deep := strings.Repeat("[", depth) + strings.Repeat("]", depth)
		checkDecode(t, []byte(`{"extra":`+deep+`}`))
		checkDecode(t, []byte(`{"objects":[{"extra":`+deep+`}]}`))
		checkDecode(t, []byte(`{"trace":{"spans":`+deep+`}}`))
	}
}

// TestDecodeHintIsNotTrusted: a body claiming a million ids and carrying no
// objects must not buy a million-object allocation.
func TestDecodeHintIsNotTrusted(t *testing.T) {
	body := []byte(`{"ids":[1` + strings.Repeat(",1", 1<<20) + `],"objects":[{"id":1}]}`)
	var a Answer
	if err := DecodeAnswer(body, &a); err != nil {
		t.Fatal(err)
	}
	if len(a.IDs) != 1<<20+1 || len(a.Objects) != 1 {
		t.Fatalf("decoded %d ids, %d objects", len(a.IDs), len(a.Objects))
	}
	if cap(a.Objects) > 1 {
		t.Errorf("Objects allocated for %d from a %d-byte tail", cap(a.Objects), len(`{"id":1}]}`))
	}
}

// FuzzAnswerCodec holds the codec to its four rules, and the column frame to
// its equivalence contract. Arm A reads the input as a response body: (1)
// what the hand decoder accepts, encoding/json accepts with an equal value;
// (2) what encoding/json refuses, it refuses. Arm B reads the input as
// material for a []Object — every byte value in names, kinds and scripts,
// the integer extremes, nil against empty — and checks that (4) the encoder
// writes json.Marshal's bytes and (3) the forward pass decodes them without
// falling back. Arm C reads the input as a column frame: refused with a
// FrameError or decoded into slices its bytes could fill, never a panic.
// Arm D turns arm B's answer into one the frame carries, traced or not, and
// requires its frame to decode to what DecodeAnswer makes of its JSON.
func FuzzAnswerCodec(f *testing.F) {
	page := append(encodeAnswer(f, paperMixAnswer(20)), '\n')
	for i := 0; i <= len(page); i++ {
		f.Add(page[:i])
	}
	frame := encodeColumns(f, paperMixAnswer(20))
	for i := 0; i <= len(frame); i++ {
		f.Add(frame[:i])
	}
	for _, s := range []string{
		`{"ids":[1],"objects":[{"id":1,"kind":"edited","name":"a","widening":null}],"stats":{},"x":[{}]}`,
		`{"IDS":[1],"ids":null}`,
		"{\"objects\":[{\"name\":\"\\u2028<\xff\"}]}",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		checkDecodeList(t, data)

		a := answerFrom(data)
		want, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		body := encodeAnswer(t, a)
		if !bytes.Equal(body, want) {
			t.Fatalf("encoder\n got %s\nwant %s", body, want)
		}
		if !checkDecode(t, body) {
			t.Fatalf("forward pass declined the encoder's own output: %s", body)
		}
		checkDecodeList(t, AppendObjects(nil, len(a.Objects), at(a.Objects)))

		checkColumnBytes(t, data)

		a = carried(answerFrom(data))
		if len(data) > 0 && data[0]&4 != 0 {
			a.Trace = obs.NewTrace()
			a.Trace.Count(obs.TImagesReturned, int64(len(a.IDs)))
		}
		checkColumns(t, a)
	})
}

// answerFrom builds an Answer out of fuzz input: each object consumes a
// flags byte, integers and three length-prefixed strings that keep the
// input's bytes as they are, invalid UTF-8 and control characters included.
// Sizes and counts are never negative, as in a server's answers: a negative
// one is encoded like any other and decoded by the fallback.
// Objects is nil when empty — the one shape the encoder does not tell apart
// (AppendObjects) — and ids is nil, empty or filled by the first byte.
func answerFrom(data []byte) *Answer {
	take := func(n int) []byte {
		n = min(n, len(data))
		b := data[:n]
		data = data[n:]
		return b
	}
	num := func() uint64 {
		b := take(2)
		switch {
		case len(b) < 2:
			return 0
		case b[0] == 0xff:
			return math.MaxUint64 - uint64(b[1])
		case b[0] == 0xfe:
			return math.MaxInt64 - uint64(b[1])
		}
		return uint64(b[0])<<8 | uint64(b[1])
	}
	str := func() string {
		b := take(1)
		if len(b) == 0 {
			return ""
		}
		return string(take(int(b[0]) % 24))
	}
	a := &Answer{}
	mode := take(1)
	for len(data) > 0 {
		flags := take(1)[0]
		o := Object{ID: num(), Kind: str(), Name: str()}
		if flags&1 != 0 {
			o.W, o.H = int(num()&math.MaxInt), int(num()&math.MaxInt)
		}
		if flags&2 != 0 {
			o.BaseID, o.Ops = num(), int(num()&math.MaxInt)
		}
		if flags&4 != 0 {
			o.Widening = ptr(flags&8 != 0)
		}
		if flags&16 != 0 {
			o.Script = str()
		}
		a.Objects = append(a.Objects, o)
		a.IDs = append(a.IDs, o.ID)
	}
	if len(mode) > 0 && a.IDs == nil && mode[0]&1 != 0 {
		a.IDs = []uint64{}
	}
	if len(mode) > 0 && mode[0]&2 != 0 {
		a.Stats = AnswerStats{int(num()), len(a.IDs), -len(a.Objects), math.MinInt}
	}
	return a
}

// BenchmarkAnswerCodec is the in-tree referee for the codec: the hand
// encoder and decoder, and the column frame's, against encoding/json on the
// answer range_full carries — 13 000 objects of paper_mix's shape, 1.2 MB on
// the wire as JSON. Every row sets the JSON body's size, so MB/s compares
// answers carried, not bytes; the frame's own size is logged.
func BenchmarkAnswerCodec(b *testing.B) {
	a := paperMixAnswer(13000)
	body := append(encodeAnswer(b, a), '\n')
	var buf []byte
	b.Run("encode/hand", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendAnswerStart(buf[:0], a.IDs)
			buf = AppendObjects(buf, len(a.Objects), at(a.Objects))
			buf, _ = AppendAnswerEnd(buf, a.Stats, nil)
		}
	})
	b.Run("encode/stdlib", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		var w bytes.Buffer
		for i := 0; i < b.N; i++ {
			w.Reset()
			if err := json.NewEncoder(&w).Encode(a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/columns", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = AppendColumns(buf[:0], a.IDs, at(a.Objects))
			buf, _ = AppendColumnsEnd(buf, &a.Stats, nil)
		}
	})
	var out Answer
	b.Run("decode/hand", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := DecodeAnswer(body, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	frame := encodeColumns(b, a)
	b.Logf("%d objects: JSON %d bytes, column frame %d bytes", len(a.Objects), len(body), len(frame))
	b.Run("decode/columns", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := DecodeColumns(frame, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/stdlib", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out = Answer{}
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
