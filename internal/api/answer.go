package api

import (
	"encoding/json"
	"strconv"

	"repro/internal/obs"
)

// Object is the wire form of a catalog entry: what GET /v1/objects/{id}
// and the insert routes answer with, one element of GET /v1/objects and of
// a query answer's "objects". Binary images carry width/height; edited
// images carry base_id, ops and widening (a pointer so that false is
// written and absent is distinguishable), and script only when the route
// is about that one object.
type Object struct {
	ID       uint64 `json:"id"`
	Kind     string `json:"kind"`
	Name     string `json:"name"`
	W        int    `json:"width,omitempty"`
	H        int    `json:"height,omitempty"`
	BaseID   uint64 `json:"base_id,omitempty"`
	Ops      int    `json:"ops,omitempty"`
	Widening *bool  `json:"widening,omitempty"`
	Script   string `json:"script,omitempty"`
}

// AnswerStats is the "stats" member of a query answer.
type AnswerStats struct {
	BinariesChecked int `json:"binaries_checked"`
	EditedWalked    int `json:"edited_walked"`
	OpsEvaluated    int `json:"ops_evaluated"`
	EditedSkipped   int `json:"edited_skipped"`
}

// Answer is the wire form of a range-query answer (GET /v1/query and
// /v1/multirange). Objects[i] describes IDs[i]. Trace is non-nil only when
// the request asked for one with trace=1 — the server-side span tree.
//
// The struct tags are the contract; the functions in this file are a
// second, faster implementation of json.Marshal on them, held to it by
// FuzzAnswerCodec: the encoder writes json.Marshal's bytes. The JSON form is
// read with encoding/json.
type Answer struct {
	IDs     []uint64    `json:"ids"`
	Objects []Object    `json:"objects"`
	Stats   AnswerStats `json:"stats"`
	Trace   *obs.Trace  `json:"trace,omitempty"`
}

// AppendAnswerStart appends an answer up to its objects, `{"ids":…,"objects":`;
// AppendObjects and then AppendAnswerEnd complete it. The three are
// separate so that a server can end its hydration span between the objects
// and the trace that reports it. A nil ids is written as null, as
// encoding/json writes a nil slice.
func AppendAnswerStart(dst []byte, ids []uint64) []byte {
	dst = append(dst, `{"ids":`...)
	if ids == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, id := range ids {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(dst, id, 10)
		}
		dst = append(dst, ']')
	}
	return append(dst, `,"objects":`...)
}

// Kind is what a Row says an object is, and its kind byte in a column
// frame: a binary image, or an edited one, whose widening classification it
// carries.
type Kind byte

// The three kinds.
const (
	KindBinary Kind = iota
	KindEdited
	KindEditedWidening
)

// Row describes the i-th object of an answer or list from its catalog
// fields: its kind, then width and height for a binary image or base_id and
// the number of ops for an edited one, then its name. The encoders take
// scalars rather than an Object so that a server encodes straight from its
// catalog entries, with nothing built or copied per object. Row is called
// once per object, and a kind other than the three is a bug: the encoders
// panic on it.
type Row func(i int) (kind Kind, a, b uint64, name string)

// AppendObjects appends the JSON array of the objects row(0..len(ids)-1),
// the i-th with id ids[i]: the whole body of GET /v1/objects, or the
// "objects" member of an answer. Each object is what json.Marshal writes of
// the Object it describes. No objects are written as null: the server has
// always answered an empty result from a nil slice.
func AppendObjects(dst []byte, ids []uint64, row Row) []byte {
	if len(ids) == 0 {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		kind, a, b, name := row(i)
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendUint(dst, id, 10)
		switch kind {
		case KindBinary:
			dst = append(dst, `,"kind":"binary","name":`...)
			dst = appendString(dst, name)
			dst = appendField(dst, `,"width":`, a)
			dst = appendField(dst, `,"height":`, b)
			dst = append(dst, '}')
		case KindEdited, KindEditedWidening:
			dst = append(dst, `,"kind":"edited","name":`...)
			dst = appendString(dst, name)
			dst = appendField(dst, `,"base_id":`, a)
			dst = appendField(dst, `,"ops":`, b)
			if kind == KindEditedWidening {
				dst = append(dst, `,"widening":true}`...)
			} else {
				dst = append(dst, `,"widening":false}`...)
			}
		default:
			panic(badKind(kind))
		}
	}
	return append(dst, ']')
}

// appendField appends key and v unless v is 0, as omitempty leaves it out.
func appendField(dst []byte, key string, v uint64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendUint(append(dst, key...), v, 10)
}

func badKind(k Kind) string { return "api: row of unknown kind " + strconv.Itoa(int(k)) }

// AppendAnswerEnd appends an answer's stats, its trace when there is one,
// and the closing brace. The trace is the one member encoding/json still
// writes: it has its own MarshalJSON and is absent from untraced answers.
func AppendAnswerEnd(dst []byte, stats AnswerStats, trace *obs.Trace) ([]byte, error) {
	dst = append(dst, `,"stats":{"binaries_checked":`...)
	dst = strconv.AppendInt(dst, int64(stats.BinariesChecked), 10)
	dst = append(dst, `,"edited_walked":`...)
	dst = strconv.AppendInt(dst, int64(stats.EditedWalked), 10)
	dst = append(dst, `,"ops_evaluated":`...)
	dst = strconv.AppendInt(dst, int64(stats.OpsEvaluated), 10)
	dst = append(dst, `,"edited_skipped":`...)
	dst = strconv.AppendInt(dst, int64(stats.EditedSkipped), 10)
	dst = append(dst, '}')
	if trace != nil {
		t, err := json.Marshal(trace)
		if err != nil {
			return dst, err
		}
		dst = append(dst, `,"trace":`...)
		dst = append(dst, t...)
	}
	return append(dst, '}'), nil
}

// appendString appends s as a JSON string. Printable ASCII that
// json.Marshal copies through unchanged is copied here; a string holding
// anything else (quotes, backslashes, control characters, the <, > and &
// that json.Marshal escapes for HTML, non-ASCII and with it U+2028/9 and
// invalid UTF-8) is json.Marshal's to write.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			b, _ := json.Marshal(s) // a string cannot fail to marshal
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// plainByte reports whether c stands for itself inside a JSON string under
// both json.Marshal (default HTML escaping) and json.Unmarshal.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}
