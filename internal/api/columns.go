package api

import (
	"encoding/binary"
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
// The frame holds what the JSON form holds, column by column:
//
//	header   one byte: 0, or columnsPlainIDs when the ids do not ascend
//	count    uvarint: 0 for a nil ids, n+1 for n ids
//	ids      n uvarints: each id's difference from the one before (the
//	         first from 0), or the ids themselves under columnsPlainIDs
//	kinds    n bytes: kindBinary, kindEdited or kindEditedWidening
//	pairs    n uvarint pairs: width and height of a binary image, base_id
//	         and ops of an edited one
//	lengths  n uvarints: each name's length in bytes
//	names    the names, end to end
//	tail     uvarint length, then that many bytes of JSON: {"stats":…} with
//	         "trace" when there is one, as the JSON form writes them; empty
//	         in an object list
//
// Objects[i].ID is ids[i]. Decoded, a frame equals DecodeAnswer of the JSON
// the server would have written for the same answer (FuzzAnswerCodec).
const ColumnsMediaType = "application/x-esidb-answer"

// The header's one flag, and the kind column's three values.
const (
	columnsPlainIDs = 1

	kindBinary         = 0
	kindEdited         = 1
	kindEditedWidening = 2
)

// minColumnBytes is the fewest bytes one object takes in a frame: an id, a
// kind, a pair and a name length. A count is held to what the bytes left
// can carry before anything is allocated for it.
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
	FrameNamePastEnd = "name length past the blob"
	FrameTail        = "malformed tail"
)

// FrameError is a column frame refused: Reason is one of the Frame*
// constants, Offset the byte where decoding stopped, and Err, for a tail
// that is not an answer's JSON, what the JSON decoder said.
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
// object(0..len(ids)-1) that describe them. AppendColumnsEnd completes it;
// the two are separate for the reason AppendAnswerStart and AppendAnswerEnd
// are. A frame carries what the server's objects hold, so object(i) must
// have ids[i] as its id, kind "binary" with a width and height, or "edited"
// with a base_id, ops and a widening flag, and no script; anything else is
// an error. object is called three times per id. Names are written as the
// JSON form leaves them: each byte of invalid UTF-8 as U+FFFD.
func AppendColumns(dst []byte, ids []uint64, object func(i int) Object) ([]byte, error) {
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
	for _, id := range ids {
		if header == columnsPlainIDs {
			dst = binary.AppendUvarint(dst, id)
			continue
		}
		dst = binary.AppendUvarint(dst, id-prev)
		prev = id
	}
	kinds := len(dst)
	dst = slices.Grow(dst, len(ids))[:kinds+len(ids)]
	for i, id := range ids {
		o := object(i)
		k, ok := columnKind(&o, id)
		if !ok {
			return dst, fmt.Errorf("api: object %d of %d does not fit a column frame: %+v", i, len(ids), o)
		}
		dst[kinds+i] = k
		if k == kindBinary {
			dst = binary.AppendUvarint(dst, uint64(o.W))
			dst = binary.AppendUvarint(dst, uint64(o.H))
		} else {
			dst = binary.AppendUvarint(dst, o.BaseID)
			dst = binary.AppendUvarint(dst, uint64(o.Ops))
		}
	}
	for i := range ids {
		dst = binary.AppendUvarint(dst, uint64(len(wireName(object(i).Name))))
	}
	for i := range ids {
		dst = append(dst, wireName(object(i).Name)...)
	}
	return dst, nil
}

// columnKind is o's kind byte, and whether o is one a frame carries as id's
// object.
func columnKind(o *Object, id uint64) (byte, bool) {
	if o.ID != id || o.Script != "" {
		return 0, false
	}
	switch o.Kind {
	case "binary":
		return kindBinary, o.W >= 0 && o.H >= 0 && o.BaseID == 0 && o.Ops == 0 && o.Widening == nil
	case "edited":
		if o.W != 0 || o.H != 0 || o.Ops < 0 || o.Widening == nil {
			return 0, false
		}
		if *o.Widening {
			return kindEditedWidening, true
		}
		return kindEdited, true
	}
	return 0, false
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

// AppendColumnsEnd appends a frame's tail: the stats and trace
// AppendAnswerEnd writes, as one JSON object, or nothing when stats is nil,
// as in an object list.
func AppendColumnsEnd(dst []byte, stats *AnswerStats, trace *obs.Trace) ([]byte, error) {
	if stats == nil {
		return append(dst, 0), nil
	}
	start := len(dst)
	dst, err := appendStatsTrace(append(dst, '{'), *stats, trace)
	if err != nil {
		return dst[:start], err
	}
	var n [binary.MaxVarintLen64]byte
	return slices.Insert(dst, start, n[:binary.PutUvarint(n[:], uint64(len(dst)-start))]...), nil
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
	at := c.pos
	tail, err := c.tail()
	if err != nil {
		return err
	}
	if len(tail) > 0 {
		var t Answer
		if err := DecodeAnswer(tail, &t); err != nil {
			return &FrameError{Reason: FrameTail, Offset: at, Err: err}
		}
		a.Stats, a.Trace = t.Stats, t.Trace
	}
	a.IDs, a.Objects = ids, objs
	return nil
}

// DecodeColumnObjects decodes the objects of a column frame, the form GET
// /v1/objects answers in; a tail, which a list does not have, is skipped.
func DecodeColumnObjects(data []byte) ([]Object, error) {
	c := columns{data: data}
	_, objs, err := c.objects()
	if err == nil {
		_, err = c.tail()
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

// objects consumes everything up to the tail. No slice is made longer than
// the bytes left could fill.
func (c *columns) objects() ([]uint64, []Object, error) {
	if c.pos == len(c.data) {
		return nil, nil, c.fail(FrameTruncated)
	}
	header := c.data[c.pos]
	if header&^columnsPlainIDs != 0 {
		return nil, nil, c.fail(FrameHeader)
	}
	c.pos++
	count, err := c.uvarint()
	if err != nil {
		return nil, nil, err
	}
	var ids []uint64
	if count > 0 {
		// The tail's length takes one more byte.
		if count-1 > uint64(max(0, len(c.data)-c.pos-1)/minColumnBytes) {
			return nil, nil, c.fail(FrameCount)
		}
		ids = make([]uint64, count-1)
	}
	var prev uint64
	for i := range ids {
		v, err := c.uvarint()
		if err != nil {
			return nil, nil, err
		}
		if header != columnsPlainIDs {
			if v > math.MaxUint64-prev {
				return nil, nil, c.fail(FrameIDOverflow)
			}
			v += prev
			prev = v
		}
		ids[i] = v
	}
	if len(ids) == 0 {
		return ids, nil, nil
	}
	if len(c.data)-c.pos < len(ids) {
		return nil, nil, c.fail(FrameTruncated)
	}
	kinds := c.data[c.pos : c.pos+len(ids)]
	edited := 0
	for i, k := range kinds {
		if k > kindEditedWidening {
			c.pos += i
			return nil, nil, c.fail(FrameKind)
		}
		if k != kindBinary {
			edited++
		}
	}
	c.pos += len(kinds)
	objs := make([]Object, len(ids))
	wide := make([]bool, edited) // backs every Widening: one allocation
	for i := range objs {
		o := &objs[i]
		o.ID = ids[i]
		if kinds[i] == kindBinary {
			o.Kind = "binary"
			if o.W, err = c.int(); err == nil {
				o.H, err = c.int()
			}
		} else {
			o.Kind = "edited"
			if o.BaseID, err = c.uvarint(); err == nil {
				o.Ops, err = c.int()
			}
			wide[0] = kinds[i] == kindEditedWidening
			o.Widening, wide = &wide[0], wide[1:]
		}
		if err != nil {
			return nil, nil, err
		}
	}
	lengths, total := c.pos, 0
	for range objs {
		n, err := c.uvarint()
		if err != nil {
			return nil, nil, err
		}
		if rest := len(c.data) - c.pos - total; rest < 0 || n > uint64(rest) {
			return nil, nil, c.fail(FrameNamePastEnd)
		}
		total += int(n)
	}
	names := string(c.data[c.pos : c.pos+total])
	c.pos += total
	re, off := columns{data: c.data, pos: lengths}, 0
	for i := range objs {
		n, _ := re.uvarint() // read once already
		objs[i].Name = names[off : off+int(n)]
		off += int(n)
	}
	return ids, objs, nil
}

// tail consumes the tail, which must end the frame.
func (c *columns) tail() ([]byte, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(c.data)-c.pos) {
		return nil, c.fail(FrameTruncated)
	}
	tail := c.data[c.pos : c.pos+int(n)]
	c.pos += int(n)
	if c.pos != len(c.data) {
		return nil, c.fail(FrameTrailing)
	}
	return tail, nil
}
