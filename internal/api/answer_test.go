package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

// encodeAnswer is the hand encoder applied to a whole Answer, the way the
// server composes it.
func encodeAnswer(t testing.TB, a *Answer) []byte {
	t.Helper()
	b := AppendAnswerStart(nil, a.IDs)
	b = AppendObjects(b, a.IDs, rowsOf(a.Objects))
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

// rowsOf is the Row of objects as the server's would be: an object with a
// widening flag is edited and one without is binary.
func rowsOf(objs []Object) Row {
	return func(i int) (Kind, uint64, uint64, string) {
		o := &objs[i]
		switch {
		case o.Widening == nil:
			return KindBinary, uint64(o.W), uint64(o.H), o.Name
		case *o.Widening:
			return KindEditedWidening, o.BaseID, uint64(o.Ops), o.Name
		}
		return KindEdited, o.BaseID, uint64(o.Ops), o.Name
	}
}

// answerOf is the answer whose objects are objs.
func answerOf(objs ...Object) *Answer {
	a := &Answer{IDs: make([]uint64, len(objs)), Objects: objs}
	for i, o := range objs {
		a.IDs[i] = o.ID
	}
	return a
}

func ptr[T any](v T) *T { return &v }

// awkwardObjects are the values the encoder's rule is about: everything
// json.Marshal escapes or rewrites in a name, the integer extremes, and every
// omitempty edge, in both kinds.
func awkwardObjects() []Object {
	return []Object{
		{Kind: "binary"},
		{ID: math.MaxUint64, Kind: "binary", Name: "plain", W: math.MaxInt, H: 1},
		{ID: 1, Kind: "edited", Name: `quote " backslash \ slash /`, BaseID: math.MaxUint64, Ops: 1, Widening: ptr(false)},
		{ID: 2, Kind: "edited", Name: "<script>&amp;</script>", Ops: math.MaxInt, Widening: ptr(true)},
		{ID: 3, Kind: "edited", Name: "line\u2028sep \u2029 é 日本 \x7f", Widening: ptr(false)},
		{ID: 4, Kind: "binary", Name: "\x00\x01\x1f bad utf8 \xff\xfe \xc3", H: 7},
	}
}

// TestEncoderMatchesMarshal is the encoder's rule: its bytes are
// json.Marshal's, for lists and whole answers.
func TestEncoderMatchesMarshal(t *testing.T) {
	tr := obs.NewTrace()
	tr.Phase("hydrate")()
	tr.Count(obs.TImagesReturned, 3)
	awkward := answerOf(awkwardObjects()...)
	awkward.Stats = AnswerStats{1, -2, math.MaxInt, 4}
	traced := answerOf(Object{ID: 7, Kind: "binary", Name: "b", W: 4, H: 4})
	traced.Trace = tr
	for _, a := range []*Answer{
		{},
		{IDs: []uint64{}},
		awkward,
		traced,
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
		if got := AppendObjects(nil, a.IDs, rowsOf(a.Objects)); !bytes.Equal(got, want) {
			t.Errorf("list\n got %s\nwant %s", got, want)
		}
	}
}

// FuzzAnswerCodec holds the JSON encoder to json.Marshal's bytes, and the
// column frame to its equivalence contract. Arm A reads the input as
// material for an answer's objects — every byte value in names, both kinds,
// the integer extremes, nil against empty — and checks that the encoder,
// fed through rowsOf, writes json.Marshal's bytes. Arm B reads the input as
// a column frame: refused with a FrameError or decoded into slices its bytes
// could fill, never a panic. Arm C traces arm A's answer or not, and
// requires its frame to decode to what json.Unmarshal makes of its JSON.
func FuzzAnswerCodec(f *testing.F) {
	page := append(encodeAnswer(f, paperMixAnswer(20)), '\n')
	// The traced seed's ids and durations are fixed, not measured, so every
	// run lists the same seed#N subtests.
	tr := new(obs.Trace)
	if err := json.Unmarshal([]byte(`{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","spans":{"name":"query",
		"span_id":"00f067aa0ba902b7","duration_us":250,"counters":{"`+obs.TImagesReturned+`":20},
		"children":[{"name":"hydrate","span_id":"53995c3f42cd8ad8","duration_us":12.5}]}}`), tr); err != nil {
		f.Fatal(err)
	}
	traced := paperMixAnswer(20)
	traced.Trace = tr
	list := paperMixAnswer(20).Objects
	slices.SortStableFunc(list, func(a, b Object) int { return strings.Compare(a.Kind, b.Kind) })
	for _, seed := range [][]byte{page, encodeColumns(f, traced), encodeColumnList(f, list)} {
		for i := 0; i <= len(seed); i++ {
			f.Add(seed[:i])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a := answerFrom(data)
		want, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		if body := encodeAnswer(t, a); !bytes.Equal(body, want) {
			t.Fatalf("encoder\n got %s\nwant %s", body, want)
		}
		want, _ = json.Marshal(a.Objects)
		if got := AppendObjects(nil, a.IDs, rowsOf(a.Objects)); !bytes.Equal(got, want) {
			t.Fatalf("list encoder\n got %s\nwant %s", got, want)
		}

		checkColumnBytes(t, data)

		if len(data) > 0 && data[0]&4 != 0 {
			a.Trace = obs.NewTrace()
			a.Trace.Count(obs.TImagesReturned, int64(len(a.IDs)))
		}
		checkColumns(t, a)
	})
}

// answerFrom builds an Answer out of fuzz input: each object consumes a
// flags byte, integers and a length-prefixed name that keeps the input's
// bytes as they are, invalid UTF-8 and control characters included. The
// flags make it binary, edited or edited and widening. Sizes and counts are
// never negative, as in a server's answers. Objects is nil when empty — the
// one shape the encoder does not tell apart (AppendObjects) — and ids is
// nil, empty or filled by the first byte.
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
		o := Object{ID: num(), Name: str()}
		if flags&1 == 0 {
			o.Kind, o.W, o.H = "binary", int(num()&math.MaxInt), int(num()&math.MaxInt)
		} else {
			o.Kind, o.BaseID, o.Ops, o.Widening = "edited", num(), int(num()&math.MaxInt), ptr(flags&2 != 0)
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

// BenchmarkAnswerCodec is the in-tree referee for the codec: the hand JSON
// encoder and the column frame's encoder and decoder, against encoding/json
// on the answer range_full carries — 13 000 objects of paper_mix's shape,
// 1.2 MB on the wire as JSON. Every row sets the JSON body's size, so MB/s compares
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
			buf = AppendObjects(buf, a.IDs, rowsOf(a.Objects))
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
			buf = AppendColumns(buf[:0], a.IDs, rowsOf(a.Objects))
			buf, _ = AppendColumnsEnd(buf, &a.Stats, nil)
		}
	})
	var out Answer
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
