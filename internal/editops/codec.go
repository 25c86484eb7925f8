package editops

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/imaging"
)

// Binary codec. Sequences are what the augmented database persists instead
// of rasters, so the encoding is compact: varints for ids and coordinates,
// IEEE-754 bits for matrix and stencil entries.

// ErrCodec is wrapped by all sequence decode errors.
var ErrCodec = errors.New("editops: invalid sequence encoding")

// EncodeBinary serializes the sequence to its compact binary form.
func EncodeBinary(s *Sequence) []byte {
	buf := make([]byte, 0, 16+len(s.Ops)*16)
	buf = binary.AppendUvarint(buf, s.BaseID)
	buf = binary.AppendUvarint(buf, uint64(len(s.Ops)))
	for _, op := range s.Ops {
		buf = append(buf, byte(op.Kind()))
		switch o := op.(type) {
		case Define:
			buf = binary.AppendVarint(buf, int64(o.Region.X0))
			buf = binary.AppendVarint(buf, int64(o.Region.Y0))
			buf = binary.AppendVarint(buf, int64(o.Region.X1))
			buf = binary.AppendVarint(buf, int64(o.Region.Y1))
		case Combine:
			for _, w := range o.Weights {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w))
			}
		case Modify:
			buf = append(buf, o.Old.R, o.Old.G, o.Old.B, o.New.R, o.New.G, o.New.B)
		case Mutate:
			for _, v := range o.M {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		case Merge:
			buf = binary.AppendUvarint(buf, o.Target)
			buf = binary.AppendVarint(buf, int64(o.XP))
			buf = binary.AppendVarint(buf, int64(o.YP))
		default:
			panic(fmt.Sprintf("editops: cannot encode op type %T", op))
		}
	}
	return buf
}

// DecodeBinary reconstructs a sequence from EncodeBinary output. It fails on
// truncation, unknown op kinds and trailing garbage.
func DecodeBinary(data []byte) (*Sequence, error) {
	r := &byteReader{data: data}
	baseID, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: base id: %v", ErrCodec, err)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: op count: %v", ErrCodec, err)
	}
	if n > uint64(len(data)) {
		return nil, fmt.Errorf("%w: implausible op count %d", ErrCodec, n)
	}
	s := &Sequence{BaseID: baseID, Ops: make([]Op, 0, n)}
	for i := uint64(0); i < n; i++ {
		kind, err := r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: op %d kind: %v", ErrCodec, i, err)
		}
		var op Op
		switch Kind(kind) {
		case KindDefine:
			var c [4]int64
			for j := range c {
				if c[j], err = binary.ReadVarint(r); err != nil {
					return nil, fmt.Errorf("%w: op %d define: %v", ErrCodec, i, err)
				}
			}
			op = Define{Region: imaging.Rect{X0: int(c[0]), Y0: int(c[1]), X1: int(c[2]), Y1: int(c[3])}}
		case KindCombine:
			var o Combine
			for j := range o.Weights {
				v, err := r.readFloat64()
				if err != nil {
					return nil, fmt.Errorf("%w: op %d combine: %v", ErrCodec, i, err)
				}
				o.Weights[j] = v
			}
			op = o
		case KindModify:
			var b [6]byte
			for j := range b {
				if b[j], err = r.ReadByte(); err != nil {
					return nil, fmt.Errorf("%w: op %d modify: %v", ErrCodec, i, err)
				}
			}
			op = Modify{Old: imaging.RGB{R: b[0], G: b[1], B: b[2]}, New: imaging.RGB{R: b[3], G: b[4], B: b[5]}}
		case KindMutate:
			var o Mutate
			for j := range o.M {
				v, err := r.readFloat64()
				if err != nil {
					return nil, fmt.Errorf("%w: op %d mutate: %v", ErrCodec, i, err)
				}
				o.M[j] = v
			}
			op = o
		case KindMerge:
			target, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, fmt.Errorf("%w: op %d merge target: %v", ErrCodec, i, err)
			}
			xp, err := binary.ReadVarint(r)
			if err != nil {
				return nil, fmt.Errorf("%w: op %d merge xp: %v", ErrCodec, i, err)
			}
			yp, err := binary.ReadVarint(r)
			if err != nil {
				return nil, fmt.Errorf("%w: op %d merge yp: %v", ErrCodec, i, err)
			}
			op = mergeOp(target, int(xp), int(yp))
		default:
			return nil, fmt.Errorf("%w: op %d has unknown kind %d", ErrCodec, i, kind)
		}
		// Reject malformed operations (non-finite matrix entries, zero-sum
		// stencils, inverted regions) at the storage boundary, so nothing
		// downstream — the rule engine in particular — ever sees them.
		if err := op.Validate(); err != nil {
			return nil, fmt.Errorf("%w: op %d: %v", ErrCodec, i, err)
		}
		s.Ops = append(s.Ops, op)
	}
	if r.pos != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(data)-r.pos)
	}
	return s, nil
}

// mergeOp is the Merge both decoders read. A null target has no placement:
// Apply, Geom and the rules ignore XP and YP there and FormatText does not
// write them, so they are dropped rather than refused, which keeps stored
// sequences readable and makes every decode a fixed point of its encoder.
func mergeOp(target uint64, xp, yp int) Merge {
	if target == NullTarget {
		return Merge{Target: NullTarget}
	}
	return Merge{Target: target, XP: xp, YP: yp}
}

type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) ReadByte() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, io.ErrUnexpectedEOF
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *byteReader) readFloat64() (float64, error) {
	if r.pos+8 > len(r.data) {
		return 0, io.ErrUnexpectedEOF
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.pos:]))
	r.pos += 8
	return v, nil
}

// Text codec: one op per line in the format produced by each op's String
// method, preceded by a "base <id>" line. Blank lines and '#' comments are
// allowed. This is the human-readable interchange format used by the CLI.

// FormatText renders the sequence in the text format.
func FormatText(s *Sequence) string {
	var b strings.Builder
	fmt.Fprintf(&b, "base %d\n", s.BaseID)
	for _, op := range s.Ops {
		b.WriteString(op.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// ParseText parses the text sequence format.
func ParseText(r io.Reader) (*Sequence, error) {
	sc := bufio.NewScanner(r)
	s := &Sequence{}
	sawBase := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		word := strings.ToLower(fields[0])
		args := fields[1:]
		fail := func(msg string, a ...any) (*Sequence, error) {
			return nil, fmt.Errorf("%w: line %d: %s", ErrCodec, lineNo, fmt.Sprintf(msg, a...))
		}
		switch word {
		case "base":
			if sawBase {
				return fail("duplicate base line")
			}
			if len(args) != 1 {
				return fail("base wants 1 argument")
			}
			id, err := strconv.ParseUint(args[0], 10, 64)
			if err != nil {
				return fail("base id %q: %v", args[0], err)
			}
			s.BaseID = id
			sawBase = true
		case "define":
			c, err := parseInts(args, 4)
			if err != nil {
				return fail("define: %v", err)
			}
			s.Ops = append(s.Ops, Define{Region: imaging.Rect{X0: c[0], Y0: c[1], X1: c[2], Y1: c[3]}})
		case "combine":
			w, err := parseFloats(args, 9)
			if err != nil {
				return fail("combine: %v", err)
			}
			var o Combine
			copy(o.Weights[:], w)
			s.Ops = append(s.Ops, o)
		case "modify":
			if len(args) != 2 {
				return fail("modify wants 2 colors")
			}
			oldC, err := ParseHexColor(args[0])
			if err != nil {
				return fail("modify old: %v", err)
			}
			newC, err := ParseHexColor(args[1])
			if err != nil {
				return fail("modify new: %v", err)
			}
			s.Ops = append(s.Ops, Modify{Old: oldC, New: newC})
		case "mutate":
			m, err := parseFloats(args, 9)
			if err != nil {
				return fail("mutate: %v", err)
			}
			var o Mutate
			copy(o.M[:], m)
			s.Ops = append(s.Ops, o)
		case "merge":
			if len(args) == 1 && strings.EqualFold(args[0], "null") {
				s.Ops = append(s.Ops, Merge{Target: NullTarget})
				break
			}
			if len(args) != 3 {
				return fail("merge wants 'null' or <target> <xp> <yp>")
			}
			target, err := strconv.ParseUint(args[0], 10, 64)
			if err != nil {
				return fail("merge target %q: %v", args[0], err)
			}
			xy, err := parseInts(args[1:], 2)
			if err != nil {
				return fail("merge: %v", err)
			}
			s.Ops = append(s.Ops, mergeOp(target, xy[0], xy[1]))
		default:
			return fail("unknown operation %q", word)
		}
		if n := len(s.Ops); n > 0 {
			if err := s.Ops[n-1].Validate(); err != nil {
				return fail("%v", err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawBase {
		return nil, fmt.Errorf("%w: missing base line", ErrCodec)
	}
	return s, nil
}

// ParseHexColor parses #rrggbb (leading '#' optional).
func ParseHexColor(s string) (imaging.RGB, error) {
	s = strings.TrimPrefix(s, "#")
	if len(s) != 6 {
		return imaging.RGB{}, fmt.Errorf("color %q must be rrggbb", s)
	}
	v, err := strconv.ParseUint(s, 16, 32)
	if err != nil {
		return imaging.RGB{}, fmt.Errorf("color %q: %v", s, err)
	}
	return imaging.RGB{R: uint8(v >> 16), G: uint8(v >> 8), B: uint8(v)}, nil
}

func parseInts(args []string, n int) ([]int, error) {
	if len(args) != n {
		return nil, fmt.Errorf("want %d integers, got %d", n, len(args))
	}
	out := make([]int, n)
	for i, a := range args {
		v, err := strconv.Atoi(a)
		if err != nil {
			return nil, fmt.Errorf("integer %q: %v", a, err)
		}
		out[i] = v
	}
	return out, nil
}

func parseFloats(args []string, n int) ([]float64, error) {
	if len(args) != n {
		return nil, fmt.Errorf("want %d numbers, got %d", n, len(args))
	}
	out := make([]float64, n)
	for i, a := range args {
		v, err := strconv.ParseFloat(a, 64)
		if err != nil {
			return nil, fmt.Errorf("number %q: %v", a, err)
		}
		out[i] = v
	}
	return out, nil
}
