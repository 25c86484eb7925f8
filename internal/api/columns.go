package api

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"unicode/utf8"

	"repro/internal/obs"
)

// ColumnsMediaType names the column frame, the second representation of an
// Answer and of the object list of GET /v1/objects. A client asks for it
// with this Accept and the server answers under this Content-Type; a request
// that does not ask gets JSON.
//
// The frame holds what the JSON form holds, one row per object:
//
//	header  one byte: 0, or columnsPlainIDs when the ids do not ascend
//	count   uvarint: 0 for a nil ids, n+1 for n ids
//	rows    n rows, the i-th describing ids[i]:
//	          id      uvarint: its difference from the id before (the
//	                  first from 0), or the id itself under columnsPlainIDs
//	          kind    one byte: KindBinary, KindEdited or KindEditedWidening
//	          pair    two uvarints: width and height of a binary image,
//	                  base_id and ops of an edited one
//	          length  uvarint: the name's length in bytes
//	          name    the name
//	tail    one byte: tailNone in an object list, tailStats in an answer,
//	        tailTrace in a traced answer
//	stats   unless tailNone: binaries_checked, edited_walked, ops_evaluated
//	        and edited_skipped, four zig-zag varints
//	trace   under tailTrace: uvarint length, then the trace as the JSON
//	        form writes it
//
// Objects[i].ID is ids[i]. Decoded, a frame equals what json.Unmarshal makes
// of the JSON the server would have written for the same answer
// (FuzzAnswerCodec).
const ColumnsMediaType = "application/x-esidb-answer"

// The header's one flag and the tail byte's three values; the kind byte is
// a Kind.
const (
	columnsPlainIDs = 1

	tailNone  = 0
	tailStats = 1
	tailTrace = 2
)

// minColumnBytes is the fewest bytes one row takes: an id, a kind, a pair
// and a name length. A count is held to what the bytes left can carry
// before anything is allocated for it.
const minColumnBytes = 5

// ErrFrame is the sentinel every column-frame decode error wraps.
var ErrFrame = errors.New("api: malformed column frame")

// The reasons a FrameError gives, one per check.
const (
	FrameTruncated   = "truncated"
	FrameOverlong    = "overlong varint"
	FrameTrailing    = "trailing bytes"
	FrameHeader      = "unknown header flags"
	FrameCount       = "count exceeds the frame"
	FrameIDOverflow  = "id delta overflows"
	FrameKind        = "unknown kind byte"
	FrameRange       = "value out of range"
	FrameNamePastEnd = "name length past the end"
	FrameTail        = "malformed tail"
)

// FrameError is a column frame refused: Reason is one of the Frame*
// constants, Offset the byte where decoding stopped, and Err, for a trace
// that is not a trace's JSON, what the JSON decoder said.
type FrameError struct {
	Reason string
	Offset int
	Err    error
}

func (e *FrameError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("api: column frame at byte %d: %s: %v", e.Offset, e.Reason, e.Err)
	}
	return fmt.Sprintf("api: column frame at byte %d: %s", e.Offset, e.Reason)
}

// Unwrap returns ErrFrame.
func (e *FrameError) Unwrap() error { return ErrFrame }

// AppendColumns appends a column frame up to its tail: ids, and the objects
// row(0..len(ids)-1) that describe them, as AppendObjects takes them.
// AppendColumnsEnd completes it; the two are separate for the reason
// AppendAnswerStart and AppendAnswerEnd are. Names are written as the JSON
// form leaves them: each byte of invalid UTF-8 as U+FFFD.
func AppendColumns(dst []byte, ids []uint64, row Row) []byte {
	var header byte
	if !slices.IsSorted(ids) {
		header = columnsPlainIDs
	}
	dst = append(dst, header)
	if ids == nil {
		dst = append(dst, 0)
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(ids))+1)
	}
	var prev uint64
	for i, id := range ids {
		kind, a, b, name := row(i)
		if kind > KindEditedWidening {
			panic(badKind(kind))
		}
		if header == columnsPlainIDs {
			dst = binary.AppendUvarint(dst, id)
		} else {
			dst = binary.AppendUvarint(dst, id-prev)
			prev = id
		}
		dst = append(dst, byte(kind))
		dst = binary.AppendUvarint(dst, a)
		dst = binary.AppendUvarint(dst, b)
		name = wireName(name)
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
	}
	return dst
}

// wireName is s as a JSON round trip leaves it: json.Marshal writes each
// byte that is not part of valid UTF-8 as U+FFFD.
func wireName(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b.WriteRune(utf8.RuneError)
		} else {
			b.WriteString(s[i : i+size])
		}
		i += size
	}
	return b.String()
}

// AppendColumnsEnd appends a frame's tail: the stats, and the trace when
// there is one, as AppendAnswerEnd writes them, or no stats when stats is
// nil, as in an object list.
func AppendColumnsEnd(dst []byte, stats *AnswerStats, trace *obs.Trace) ([]byte, error) {
	if stats == nil {
		return append(dst, tailNone), nil
	}
	kind, t := byte(tailStats), []byte(nil)
	if trace != nil {
		var err error
		if t, err = json.Marshal(trace); err != nil {
			return dst, err
		}
		kind = tailTrace
	}
	dst = append(dst, kind)
	for _, v := range [...]int{stats.BinariesChecked, stats.EditedWalked, stats.OpsEvaluated, stats.EditedSkipped} {
		dst = binary.AppendVarint(dst, int64(v))
	}
	if trace != nil {
		dst = binary.AppendUvarint(dst, uint64(len(t)))
		dst = append(dst, t...)
	}
	return dst, nil
}

// DecodeColumns decodes a column frame into a zero Answer. Every string it
// keeps is a copy: the names share one allocation, not data.
func DecodeColumns(data []byte, a *Answer) error {
	*a = Answer{}
	c := columns{data: data}
	ids, objs, err := c.objects()
	if err != nil {
		return err
	}
	var stats AnswerStats
	trace, traced, err := c.tail(&stats)
	if err != nil {
		return err
	}
	if traced {
		var tr *obs.Trace
		if err := json.Unmarshal(trace, &tr); err != nil {
			return &FrameError{Reason: FrameTail, Offset: len(data) - len(trace), Err: err}
		}
		a.Trace = tr
	}
	a.IDs, a.Objects, a.Stats = ids, objs, stats
	return nil
}

// DecodeColumnObjects decodes the objects of a column frame, the form GET
// /v1/objects answers in; stats and a trace, which a list does not have,
// are stepped over.
func DecodeColumnObjects(data []byte) ([]Object, error) {
	c := columns{data: data}
	_, objs, err := c.objects()
	if err == nil {
		_, _, err = c.tail(new(AnswerStats))
	}
	if err != nil {
		return nil, err
	}
	return objs, nil
}

// columns is a decode in progress.
type columns struct {
	data []byte
	pos  int
}

func (c *columns) fail(reason string) error { return &FrameError{Reason: reason, Offset: c.pos} }

// uvarint consumes one varint in its shortest form.
func (c *columns) uvarint() (uint64, error) {
	if c.pos < len(c.data) && c.data[c.pos] < 0x80 {
		c.pos++
		return uint64(c.data[c.pos-1]), nil
	}
	v, n := binary.Uvarint(c.data[c.pos:])
	switch {
	case n == 0:
		return 0, c.fail(FrameTruncated)
	case n < 0:
		return 0, c.fail(FrameOverlong) // past 64 bits
	case c.data[c.pos+n-1] == 0:
		return 0, c.fail(FrameOverlong) // padded with a zero group
	}
	c.pos += n
	return v, nil
}

// int consumes a varint that must fit an int.
func (c *columns) int() (int, error) {
	v, err := c.uvarint()
	if err == nil && v > math.MaxInt {
		return 0, c.fail(FrameRange)
	}
	return int(v), err
}

// varint consumes a zig-zag varint that must fit an int.
func (c *columns) varint() (int, error) {
	u, err := c.uvarint()
	v := int64(u>>1) ^ -int64(u&1)
	if err == nil && int64(int(v)) != v {
		return 0, c.fail(FrameRange)
	}
	return int(v), err
}

// byte consumes one byte.
func (c *columns) byte() (byte, error) {
	if c.pos == len(c.data) {
		return 0, c.fail(FrameTruncated)
	}
	c.pos++
	return c.data[c.pos-1], nil
}

// objects consumes the header, the count and the rows. No slice is made
// longer than the bytes left could fill.
func (c *columns) objects() ([]uint64, []Object, error) {
	header, err := c.byte()
	if err != nil {
		return nil, nil, err
	}
	if header&^columnsPlainIDs != 0 {
		c.pos--
		return nil, nil, c.fail(FrameHeader)
	}
	count, err := c.uvarint()
	if err != nil || count == 0 {
		return nil, nil, err
	}
	// The tail takes one more byte.
	if count-1 > uint64(max(0, len(c.data)-c.pos-1)/minColumnBytes) {
		return nil, nil, c.fail(FrameCount)
	}
	ids := make([]uint64, count-1)
	if len(ids) == 0 {
		return ids, nil, nil
	}
	objs := make([]Object, len(ids))
	wide := make([]bool, len(ids)) // backs every Widening: one allocation
	rows := c.pos
	text := string(c.data[rows:]) // every Name slices this one copy
	var prev uint64
	for i := range objs {
		id, err := c.uvarint()
		if err != nil {
			return nil, nil, err
		}
		if header != columnsPlainIDs {
			if id > math.MaxUint64-prev {
				return nil, nil, c.fail(FrameIDOverflow)
			}
			id += prev
			prev = id
		}
		ids[i] = id
		o := &objs[i]
		o.ID = id
		k, err := c.byte()
		if err != nil {
			return nil, nil, err
		}
		switch Kind(k) {
		case KindBinary:
			o.Kind = "binary"
			if o.W, err = c.int(); err == nil {
				o.H, err = c.int()
			}
		case KindEdited, KindEditedWidening:
			o.Kind = "edited"
			if o.BaseID, err = c.uvarint(); err == nil {
				o.Ops, err = c.int()
			}
			wide[i] = Kind(k) == KindEditedWidening
			o.Widening = &wide[i]
		default:
			c.pos--
			return nil, nil, c.fail(FrameKind)
		}
		if err != nil {
			return nil, nil, err
		}
		n, err := c.uvarint()
		if err != nil {
			return nil, nil, err
		}
		if n > uint64(len(c.data)-c.pos) {
			return nil, nil, c.fail(FrameNamePastEnd)
		}
		o.Name = text[c.pos-rows : c.pos-rows+int(n)]
		c.pos += int(n)
	}
	return ids, objs, nil
}

// tail consumes the tail, which must end the frame: it fills stats when
// the frame has them, and returns the trace's JSON and whether there is one.
func (c *columns) tail(stats *AnswerStats) (trace []byte, traced bool, err error) {
	kind, err := c.byte()
	if err != nil {
		return nil, false, err
	}
	if kind > tailTrace {
		c.pos--
		return nil, false, c.fail(FrameTail)
	}
	if kind != tailNone {
		for _, f := range [...]*int{&stats.BinariesChecked, &stats.EditedWalked, &stats.OpsEvaluated, &stats.EditedSkipped} {
			if *f, err = c.varint(); err != nil {
				return nil, false, err
			}
		}
	}
	if kind == tailTrace {
		n, err := c.uvarint()
		if err != nil {
			return nil, false, err
		}
		if n > uint64(len(c.data)-c.pos) {
			return nil, false, c.fail(FrameTruncated)
		}
		trace = c.data[c.pos : c.pos+int(n)]
		c.pos += int(n)
	}
	if c.pos != len(c.data) {
		return nil, false, c.fail(FrameTrailing)
	}
	return trace, kind == tailTrace, nil
}
