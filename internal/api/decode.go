package api

import (
	"bytes"
	"encoding/json"
	"math"
)

// DecodeAnswer is json.Unmarshal(data, a) into a zero Answer, done in one
// forward pass when data has the form the server writes.
//
// The pass never decides that a body is invalid, only that it is not that
// form — an escaped or case-folded or repeated key, a number that is not a
// plain in-range decimal, anything it does not expect where it stands — and
// then encoding/json decodes the whole body and gives the verdict. So the
// contract has one side to keep: what the pass does accept, encoding/json
// accepts with a reflect.DeepEqual result (FuzzAnswerCodec).
func DecodeAnswer(data []byte, a *Answer) error {
	*a = Answer{}
	p := parser{data: data}
	if p.answer(a) && p.end() {
		return nil
	}
	*a = Answer{}
	return json.Unmarshal(data, a)
}

// DecodeObjects is json.Unmarshal of a bare object list — the body of GET
// /v1/objects — under DecodeAnswer's contract.
func DecodeObjects(data []byte) ([]Object, error) {
	p := parser{data: data}
	if objs, ok := p.objectList(0); ok && p.end() {
		return objs, nil
	}
	var objs []Object
	err := json.Unmarshal(data, &objs)
	return objs, err
}

// minObjectBytes is the shortest object a server writes, comma included. It
// keeps the one allocation of Objects proportional to the bytes actually
// received, whatever length "ids" claims; shorter objects only make the
// slice grow.
const minObjectBytes = len(`{"id":0,"kind":"","name":""},`)

// maxSkipDepth bounds the nesting of a member the pass locates without
// decoding. encoding/json refuses documents nested deeper than 10 000; a
// member cut out of its document would be judged a few levels short of
// that, so anything remotely that deep is encoding/json's to judge whole.
const maxSkipDepth = 1000

// parser is the forward pass. Every method returns false to decline the
// input; none of them reports why.
type parser struct {
	data []byte
	pos  int
	// wide backs every Object.Widening of one decode: one allocation, not
	// one per edited image. Growing it leaves earlier pointers valid (they
	// keep the old array alive), so an answer with more objects than ids
	// only costs more, never aliases.
	wide []bool
}

func (p *parser) ws() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// byte consumes c after optional white space.
func (p *parser) byte(c byte) bool {
	p.ws()
	if p.pos < len(p.data) && p.data[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// end reports whether only white space is left.
func (p *parser) end() bool {
	p.ws()
	return p.pos == len(p.data)
}

// lit consumes the literal s if it stands here.
func (p *parser) lit(s string) bool {
	if bytes.HasPrefix(p.data[p.pos:], []byte(s)) {
		p.pos += len(s)
		return true
	}
	return false
}

// null consumes a null literal. On the first occurrence of a member — the
// only one the pass accepts — null leaves the zero field as it is, for
// every field type.
func (p *parser) null() bool { return p.lit("null") }

// next consumes the separator after an array element or object member and
// reports whether another follows; ok is false when neither `,` nor the
// closing byte stands there.
func (p *parser) next(closing byte) (more, ok bool) {
	p.ws()
	if p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ',':
			p.pos++
			return true, true
		case closing:
			p.pos++
			return false, true
		}
	}
	return false, false
}

// stringBytes consumes a string. A plain one — printable ASCII, no escapes —
// comes back as the bytes between its quotes; any other comes back whole,
// quotes included, for encoding/json to unquote (or refuse: a raw control
// character, a bad escape).
func (p *parser) stringBytes() (raw []byte, plain, ok bool) {
	if !p.byte('"') {
		return nil, false, false
	}
	start := p.pos
	plain = true
	for ; p.pos < len(p.data); p.pos++ {
		switch c := p.data[p.pos]; {
		case c == '"':
			p.pos++
			if plain {
				return p.data[start : p.pos-1], true, true
			}
			return p.data[start-1 : p.pos], false, true
		case c == '\\':
			plain = false
			p.pos++ // whatever is escaped, it is not the closing quote
		case !plainByte(c):
			plain = false
		}
	}
	return nil, false, false
}

// string consumes a string value. The two kinds the server writes are
// returned without an allocation.
func (p *parser) string() (string, bool) {
	raw, plain, ok := p.stringBytes()
	if !ok {
		return "", false
	}
	if plain {
		switch string(raw) {
		case "binary":
			return "binary", true
		case "edited":
			return "edited", true
		}
		return string(raw), true
	}
	var s string
	if json.Unmarshal(raw, &s) != nil {
		return "", false
	}
	return s, true
}

// key consumes a member name and its colon. Only plain names are accepted:
// encoding/json matches names case-insensitively under Unicode folding
// ("ſtats" is "stats"), which is not this pass's to reimplement.
func (p *parser) key() ([]byte, bool) {
	raw, plain, ok := p.stringBytes()
	if !ok || !plain || !p.byte(':') {
		return nil, false
	}
	p.ws()
	return raw, true
}

// foldsTo reports whether key, which matched none of names exactly, is one
// of them in another case — a member encoding/json would have decoded.
func foldsTo(key []byte, names ...string) bool {
	for _, n := range names {
		if len(key) == len(n) && bytes.EqualFold(key, []byte(n)) {
			return true
		}
	}
	return false
}

// uint consumes a JSON number that is a plain decimal fitting a uint64: no
// sign, no leading zero, no fraction or exponent (whatever follows the
// digits is left for next to refuse).
func (p *parser) uint() (uint64, bool) {
	start := p.pos
	var v uint64
	for ; p.pos < len(p.data); p.pos++ {
		c := p.data[p.pos]
		if c < '0' || c > '9' {
			break
		}
		d := uint64(c - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	n := p.pos - start
	if n == 0 || (n > 1 && p.data[start] == '0') {
		return 0, false
	}
	return v, true
}

func (p *parser) int() (int, bool) {
	v, ok := p.uint()
	if !ok || v > math.MaxInt {
		return 0, false
	}
	return int(v), true
}

// value consumes one JSON value of any shape without decoding it and
// returns its extent. The extent is exact for well-formed input and
// arbitrary otherwise, so a caller hands it to encoding/json before
// believing it.
func (p *parser) value() ([]byte, bool) {
	start := p.pos
	if p.pos == len(p.data) {
		return nil, false
	}
	switch p.data[p.pos] {
	case '"':
		if _, _, ok := p.stringBytes(); !ok {
			return nil, false
		}
	case '{', '[':
		depth := 0
		for {
			if p.pos == len(p.data) {
				return nil, false
			}
			switch p.data[p.pos] {
			case '"':
				if _, _, ok := p.stringBytes(); !ok {
					return nil, false
				}
				continue
			case '{', '[':
				if depth++; depth > maxSkipDepth {
					return nil, false
				}
			case '}', ']':
				depth--
			}
			p.pos++
			if depth == 0 {
				break
			}
		}
	default:
	literal:
		for ; p.pos < len(p.data); p.pos++ {
			switch p.data[p.pos] {
			case ',', ']', '}', ' ', '\t', '\n', '\r':
				break literal
			}
		}
	}
	return p.data[start:p.pos], true
}

// stdlib consumes one value and has encoding/json decode it into dst, as it
// would have inside the whole document: the first occurrence of a member
// meets a zero field either way.
func (p *parser) stdlib(dst any) bool {
	v, ok := p.value()
	return ok && json.Unmarshal(v, dst) == nil
}

// skip consumes a member this codec has no field for; encoding/json checks
// that it is well formed.
func (p *parser) skip() bool {
	v, ok := p.value()
	return ok && json.Valid(v)
}

const (
	seenIDs = 1 << iota
	seenObjects
	seenStats
	seenTrace
)

func (p *parser) answer(a *Answer) bool {
	if !p.byte('{') {
		return false
	}
	if p.byte('}') {
		return true
	}
	var seen, field uint
	for more := true; more; {
		key, ok := p.key()
		if !ok {
			return false
		}
		switch string(key) {
		case "ids":
			field = seenIDs
			a.IDs, ok = p.ids()
		case "objects":
			field = seenObjects
			a.Objects, ok = p.objectList(len(a.IDs))
		case "stats":
			field = seenStats
			ok = p.stdlib(&a.Stats)
		case "trace":
			field = seenTrace
			ok = p.stdlib(&a.Trace)
		default:
			field = 0
			ok = !foldsTo(key, "ids", "objects", "stats", "trace") && p.skip()
		}
		// A repeated member merges into or replaces what the first one
		// left, by rules that differ per field type: encoding/json's.
		if !ok || seen&field != 0 {
			return false
		}
		seen |= field
		if more, ok = p.next('}'); !ok {
			return false
		}
	}
	return true
}

// ids consumes the array of ids, allocated once: no id holds a comma, so
// the commas before the first `]` count the elements.
func (p *parser) ids() ([]uint64, bool) {
	if p.null() {
		return nil, true
	}
	if !p.byte('[') {
		return nil, false
	}
	if p.byte(']') {
		return []uint64{}, true
	}
	end := bytes.IndexByte(p.data[p.pos:], ']')
	if end < 0 {
		return nil, false
	}
	ids := make([]uint64, 0, bytes.Count(p.data[p.pos:p.pos+end], []byte(","))+1)
	for more := true; more; {
		p.ws()
		id, ok := p.uint()
		if !ok {
			return nil, false
		}
		ids = append(ids, id)
		if more, ok = p.next(']'); !ok {
			return nil, false
		}
	}
	return ids, true
}

// objectList consumes an array of objects. hint is how many the caller
// expects (an answer's ids precede its objects on the wire); the slice is
// allocated once at that size, held to what the remaining bytes can carry.
func (p *parser) objectList(hint int) ([]Object, bool) {
	if p.null() {
		return nil, true
	}
	if !p.byte('[') {
		return nil, false
	}
	if p.byte(']') {
		return []Object{}, true
	}
	hint = min(hint, (len(p.data)-p.pos)/minObjectBytes)
	objs := make([]Object, 0, hint)
	for more := true; more; {
		objs = append(objs, Object{})
		if !p.object(&objs[len(objs)-1], cap(objs)) {
			return nil, false
		}
		var ok bool
		if more, ok = p.next(']'); !ok {
			return nil, false
		}
	}
	return objs, true
}

const (
	seenID = 1 << iota
	seenKind
	seenName
	seenW
	seenH
	seenBaseID
	seenOps
	seenWidening
	seenScript
)

// object consumes one object into the zero *o. siblings sizes the shared
// widening array the first time one is needed.
func (p *parser) object(o *Object, siblings int) bool {
	if !p.byte('{') {
		return false
	}
	if p.byte('}') {
		return true
	}
	var seen, field uint
	for more := true; more; {
		key, ok := p.key()
		if !ok {
			return false
		}
		switch null := p.null(); string(key) {
		case "id":
			field = seenID
			if !null {
				o.ID, ok = p.uint()
			}
		case "kind":
			field = seenKind
			if !null {
				o.Kind, ok = p.string()
			}
		case "name":
			field = seenName
			if !null {
				o.Name, ok = p.string()
			}
		case "width":
			field = seenW
			if !null {
				o.W, ok = p.int()
			}
		case "height":
			field = seenH
			if !null {
				o.H, ok = p.int()
			}
		case "base_id":
			field = seenBaseID
			if !null {
				o.BaseID, ok = p.uint()
			}
		case "ops":
			field = seenOps
			if !null {
				o.Ops, ok = p.int()
			}
		case "widening":
			field = seenWidening
			if !null {
				o.Widening, ok = p.widening(siblings)
			}
		case "script":
			field = seenScript
			if !null {
				o.Script, ok = p.string()
			}
		default:
			field = 0
			ok = !foldsTo(key, "id", "kind", "name", "width", "height", "base_id", "ops", "widening", "script") &&
				(null || p.skip())
		}
		if !ok || seen&field != 0 {
			return false
		}
		seen |= field
		if more, ok = p.next('}'); !ok {
			return false
		}
	}
	return true
}

func (p *parser) widening(siblings int) (*bool, bool) {
	v := p.lit("true")
	if !v && !p.lit("false") {
		return nil, false
	}
	if p.wide == nil {
		p.wide = make([]bool, 0, siblings)
	}
	p.wide = append(p.wide, v)
	return &p.wide[len(p.wide)-1], true
}
