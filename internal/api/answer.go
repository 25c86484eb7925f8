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
// The struct tags are the contract; the functions in this file and
// DecodeAnswer/DecodeObjects are a second, faster implementation of what
// encoding/json does with them, held to it by FuzzAnswerCodec: the encoder
// writes json.Marshal's bytes, and the decoder accepts only what
// json.Unmarshal accepts, with the same result.
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

// AppendObjects appends the JSON array of the n objects object(0..n-1) —
// the whole body of GET /v1/objects, or the "objects" member of an answer.
// The callback lets a server encode straight from its catalog entries
// without building a []Object. No objects are written as null: the server
// has always answered an empty result from a nil slice.
func AppendObjects(dst []byte, n int, object func(i int) Object) []byte {
	if n == 0 {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		o := object(i)
		dst = AppendObject(dst, &o)
	}
	return append(dst, ']')
}

// AppendObject appends json.Marshal(o).
func AppendObject(dst []byte, o *Object) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, o.ID, 10)
	dst = append(dst, `,"kind":`...)
	dst = appendString(dst, o.Kind)
	dst = append(dst, `,"name":`...)
	dst = appendString(dst, o.Name)
	if o.W != 0 {
		dst = append(dst, `,"width":`...)
		dst = strconv.AppendInt(dst, int64(o.W), 10)
	}
	if o.H != 0 {
		dst = append(dst, `,"height":`...)
		dst = strconv.AppendInt(dst, int64(o.H), 10)
	}
	if o.BaseID != 0 {
		dst = append(dst, `,"base_id":`...)
		dst = strconv.AppendUint(dst, o.BaseID, 10)
	}
	if o.Ops != 0 {
		dst = append(dst, `,"ops":`...)
		dst = strconv.AppendInt(dst, int64(o.Ops), 10)
	}
	if o.Widening != nil {
		dst = append(dst, `,"widening":`...)
		dst = strconv.AppendBool(dst, *o.Widening)
	}
	if o.Script != "" {
		dst = append(dst, `,"script":`...)
		dst = appendString(dst, o.Script)
	}
	return append(dst, '}')
}

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
