package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"mltcp/internal/sim"
)

// errJSONLine marks a line the event decoder hands to encoding/json: a
// manifest or metrics line, or any line with a value that is not a
// string or a number.
var errJSONLine = errors.New("telemetry: not a flat event line")

// lineDecoder decodes JSONL event lines without reflection, in one pass
// per line that checks its JSON syntax and resolves each field against
// the schema table as the field is scanned. An event line is one flat
// JSON object: its values are strings and numbers, its keys may come in
// any order with any JSON whitespace between tokens, and string escapes
// decode as encoding/json decodes them.
//
// The common fields (t, kind, flow, link) are resolved when scanned and
// payload fields as soon as the kind is known, so only a payload field
// that comes before "kind" on the line is held back until then.
// Integers are parsed from the digits as the scanner checks them, with
// strconv.ParseInt's range, and floats by strconv.ParseFloat, so every
// value is bit-identical to encoding/json's.
//
// An unknown, duplicated or mistyped field is an error that names it.
// What a bad line reports does not depend on where the pass found it: a
// syntax error anywhere on the line comes first, then a missing,
// mistyped or duplicated kind, then an unknown kind, then the first bad
// field in line order. The decoder reuses its buffers and interns link
// names, so a line allocates nothing.
type lineDecoder struct {
	line  []byte            // the line being decoded
	buf   []byte            // unescape scratch
	links map[string]string // interned link names
	// nestedKey is the key whose value made the last line non-flat
	// ("" when the line was flat), for naming it if the line turns out
	// to be an event.
	nestedKey string

	// The current line's decoding so far.
	e       Event
	kind    kindState
	kindErr error  // the outcome once kind is kindRejected or kindBad
	seen    int    // the seen-field bits below
	pending []pair // payload fields scanned before "kind"
	// fieldErr is the error of the first bad field in line order, and
	// fieldErrAt that field's index on the line.
	fieldErr   error
	fieldErrAt int
}

// kindState is how far a line's "kind" field has been resolved.
type kindState uint8

const (
	kindUnseen   kindState = iota // no "kind" field yet
	kindKnown                     // an event kind, stored in e.Kind
	kindRejected                  // a string naming no event kind; kindErr is errJSONLine for a manifest or metrics line
	kindBad                       // a mistyped or duplicated "kind"; no later field changes kindErr
)

// pair is one key/value of a flat line: raw string contents (between
// the quotes, still escaped when esc is set) or a number literal. An
// integer is also held as scanNumber parsed it: (-1 if neg) × mant,
// where mant is exact when it has at most 19 digits.
type pair struct {
	key, val       span
	keyEsc, valEsc bool
	str            bool // val is a string, not a number
	integer        bool // val is a number with no fraction or exponent
	neg            bool
	digits         int // digits of the integer part (0 for a lone 0)
	mant           uint64
	at             int // the field's index on the line
}

// span is the byte range [lo, hi) of the line. Spans rather than
// subslices keep pair pointer-free, so holding one back is a plain copy.
type span struct{ lo, hi int }

func (d *lineDecoder) raw(s span) []byte { return d.line[s.lo:s.hi] }

func newLineDecoder() *lineDecoder {
	return &lineDecoder{links: make(map[string]string)}
}

// decode decodes one non-empty, trimmed line into an event. It returns
// errJSONLine for a line that is not an event or not flat.
func (d *lineDecoder) decode(line []byte) (Event, error) {
	d.line = line
	d.nestedKey = ""
	d.e = Event{}
	d.kind, d.kindErr = kindUnseen, nil
	d.seen = 0
	d.pending = d.pending[:0]
	d.fieldErr = nil
	i := skipSpace(line, 0)
	if i >= len(line) || line[i] != '{' {
		return Event{}, syntaxError(line, i)
	}
	i = skipSpace(line, i+1)
	if i < len(line) && line[i] == '}' {
		return d.end(i + 1)
	}
	for at := 0; ; at++ {
		p := pair{at: at}
		var err error
		if i >= len(line) || line[i] != '"' {
			return Event{}, syntaxError(line, i)
		}
		if p.key, p.keyEsc, i, err = scanString(line, i); err != nil {
			return Event{}, err
		}
		i = skipSpace(line, i)
		if i >= len(line) || line[i] != ':' {
			return Event{}, syntaxError(line, i)
		}
		i = skipSpace(line, i+1)
		if i >= len(line) {
			return Event{}, syntaxError(line, i)
		}
		switch c := line[i]; {
		case c == '"':
			p.str = true
			if p.val, p.valEsc, i, err = scanString(line, i); err != nil {
				return Event{}, err
			}
		case c == '-' || isDigit(c):
			if i, err = scanNumber(line, i, &p); err != nil {
				return Event{}, err
			}
		case c == '{' || c == '[' || c == 't' || c == 'f' || c == 'n':
			d.nestedKey = string(d.unquote(d.raw(p.key), p.keyEsc))
			return Event{}, errJSONLine
		default:
			return Event{}, syntaxError(line, i)
		}
		d.field(&p)
		i = skipSpace(line, i)
		if i < len(line) && line[i] == ',' {
			i = skipSpace(line, i+1)
			continue
		}
		if i < len(line) && line[i] == '}' {
			return d.end(i + 1)
		}
		return Event{}, syntaxError(line, i)
	}
}

// end checks that nothing but whitespace follows the object at line[i],
// then returns the line's outcome.
func (d *lineDecoder) end(i int) (Event, error) {
	if i = skipSpace(d.line, i); i < len(d.line) {
		return Event{}, syntaxError(d.line, i)
	}
	switch {
	case d.kind == kindUnseen:
		return Event{}, errors.New(`unknown event kind ""`)
	case d.kind != kindKnown:
		return Event{}, d.kindErr
	case d.fieldErr != nil:
		return Event{}, d.fieldErr
	}
	return d.e, nil
}

// Bits of the per-line seen-field set: the common fields, then one bit
// per schema payload field.
const (
	seenT = 1 << iota
	seenFlow
	seenLink
	seenPayload
)

// field resolves one scanned field of the line.
func (d *lineDecoder) field(p *pair) {
	key := d.unquote(d.raw(p.key), p.keyEsc)
	switch string(key) {
	case "t":
		if d.first(p, seenT) {
			v, err := intValue(p, d.raw(p.val))
			d.e.At = sim.Time(v)
			d.check(p, err)
		}
	case "kind":
		d.kindField(p)
	case "flow":
		if d.first(p, seenFlow) {
			v, err := intValue(p, d.raw(p.val))
			d.e.Flow = int(v)
			d.check(p, err)
		}
	case "link":
		if d.first(p, seenLink) {
			if p.str {
				d.e.Link = d.intern(d.unquote(d.raw(p.val), p.valEsc))
			} else {
				d.check(p, fmt.Errorf("want a string, got %s", d.raw(p.val)))
			}
		}
	default:
		switch d.kind {
		case kindUnseen:
			d.pending = append(d.pending, *p)
		case kindKnown:
			d.payload(p, key)
		}
	}
}

// kindField resolves the "kind" field, then the payload fields held
// back before it.
func (d *lineDecoder) kindField(p *pair) {
	switch {
	case d.kind == kindBad:
		return
	case d.kind != kindUnseen:
		d.kind, d.kindErr = kindBad, errors.New(`duplicate field "kind"`)
		return
	case !p.str:
		d.kind, d.kindErr = kindBad, fmt.Errorf(`field "kind": want a string, got %s`, d.raw(p.val))
		return
	}
	name := d.unquote(d.raw(p.val), p.valEsc)
	switch string(name) {
	case "manifest", "metrics":
		d.kind, d.kindErr = kindRejected, errJSONLine
		return
	}
	k, ok := kindByName(name)
	if !ok {
		d.kind, d.kindErr = kindRejected, fmt.Errorf("unknown event kind %q", name)
		return
	}
	d.kind, d.e.Kind = kindKnown, k
	for i := range d.pending {
		q := &d.pending[i]
		d.payload(q, d.unquote(d.raw(q.key), q.keyEsc))
	}
}

// payload resolves a payload field against the line's kind.
func (d *lineDecoder) payload(p *pair, key []byte) {
	sc := &schema[d.e.Kind]
	j := 0
	for j < len(sc.fields) && sc.fields[j].key != string(key) {
		j++
	}
	if j == len(sc.fields) {
		d.fail(p, fmt.Errorf("unknown field %q for event kind %q", key, sc.name))
		return
	}
	if !d.first(p, seenPayload<<j) {
		return
	}
	val := d.raw(p.val)
	if s := sc.fields[j].slot; s.isFloat() {
		v, err := floatValue(p, val)
		*d.e.floatSlot(s) = v
		d.check(p, err)
	} else {
		v, err := intValue(p, val)
		*d.e.intSlot(s) = v
		d.check(p, err)
	}
}

// first marks the field's bit seen, and reports whether it was unseen;
// a field seen before is a duplicate.
func (d *lineDecoder) first(p *pair, bit int) bool {
	if d.seen&bit != 0 {
		d.failf(p, "duplicate field %q", nil)
		return false
	}
	d.seen |= bit
	return true
}

// check records a value error of the field, naming it.
func (d *lineDecoder) check(p *pair, err error) {
	if err != nil {
		d.failf(p, "field %q: %w", err)
	}
}

// failf records an error naming the field: format takes the field's
// key, then err when it is not nil.
func (d *lineDecoder) failf(p *pair, format string, err error) {
	key := d.unquote(d.raw(p.key), p.keyEsc)
	if err == nil {
		d.fail(p, fmt.Errorf(format, key))
	} else {
		d.fail(p, fmt.Errorf(format, key, err))
	}
}

// fail records the field's error unless a field earlier on the line has
// one: the pass resolves fields held back before "kind" after some that
// follow them.
func (d *lineDecoder) fail(p *pair, err error) {
	if d.fieldErr == nil || p.at < d.fieldErrAt {
		d.fieldErr, d.fieldErrAt = err, p.at
	}
}

func (e *Event) intSlot(s slot) *int64 {
	if s == slotN {
		return &e.N
	}
	return &e.M
}

func (e *Event) floatSlot(s slot) *float64 {
	if s == slotV0 {
		return &e.V0
	}
	return &e.V1
}

// intValue returns an integer field's value, which scanNumber parsed,
// with strconv.ParseInt's range. encoding/json rejects a fraction or
// exponent for an integer field, and so does this.
func intValue(p *pair, val []byte) (int64, error) {
	switch {
	case !p.integer:
		return 0, fmt.Errorf("want an integer, got %s", literal(p, val))
	case p.digits > 19, p.neg && p.mant > 1<<63, !p.neg && p.mant > math.MaxInt64:
		return 0, fmt.Errorf("integer %s out of range", val)
	case p.neg:
		return -int64(p.mant), nil
	}
	return int64(p.mant), nil
}

// floatValue returns a float field's value, from strconv.ParseFloat as
// encoding/json parses it.
func floatValue(p *pair, val []byte) (float64, error) {
	if p.str {
		return 0, fmt.Errorf("want a number, got %s", literal(p, val))
	}
	v, err := strconv.ParseFloat(string(val), 64)
	if err != nil {
		return 0, fmt.Errorf("number %s out of range", val)
	}
	return v, nil
}

// literal renders a value for an error message as it appears on the
// line.
func literal(p *pair, val []byte) string {
	if p.str {
		return `"` + string(val) + `"`
	}
	return string(val)
}

// intern returns the link name as a string, allocating only the first
// time the decoder sees it.
func (d *lineDecoder) intern(b []byte) string {
	if s, ok := d.links[string(b)]; ok {
		return s
	}
	s := string(b)
	d.links[s] = s
	return s
}

// unquote returns a scanned string's decoded bytes: raw itself when it
// needs no decoding, else the decoding in the decoder's scratch buffer,
// valid until the next call. It decodes as encoding/json does: a lone
// or mismatched UTF-16 surrogate escape, and each invalid UTF-8 byte,
// becomes U+FFFD.
func (d *lineDecoder) unquote(raw []byte, esc bool) []byte {
	if !esc {
		return raw
	}
	return d.unescape(raw)
}

func (d *lineDecoder) unescape(raw []byte) []byte {
	b := d.buf[:0]
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\' && raw[i+1] == 'u':
			r := hex4(raw[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
					r2 = hex4(raw[i+2:])
				}
				if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
					r = dec
					i += 6
				} else {
					r = unicode.ReplacementChar
				}
			}
			b = utf8.AppendRune(b, r)
		case c == '\\':
			switch c = raw[i+1]; c {
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			}
			b = append(b, c)
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	d.buf = b
	return b
}

// hex4 decodes four hex digits, already checked by scanString.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c >= 'a':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// scanString scans the JSON string starting at line[i] == '"'. It
// returns the span between the quotes and whether it needs unquote: an
// escape, or a byte outside ASCII that may be invalid UTF-8.
func scanString(line []byte, i int) (s span, esc bool, next int, err error) {
	start := i + 1
	j := start
	for j < len(line) && plain[line[j]] {
		j++
	}
	for ; j < len(line); j++ {
		switch c := line[j]; {
		case c == '"':
			return span{start, j}, esc, j + 1, nil
		case c == '\\':
			esc = true
			j++
			if j >= len(line) {
				return span{}, false, 0, syntaxError(line, j)
			}
			switch line[j] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 1; k <= 4; k++ {
					if j+k >= len(line) || !isHex(line[j+k]) {
						return span{}, false, 0, syntaxError(line, j+k)
					}
				}
				j += 4
			default:
				return span{}, false, 0, syntaxError(line, j)
			}
		case c < 0x20:
			return span{}, false, 0, syntaxError(line, j)
		case c >= utf8.RuneSelf:
			esc = true
		}
	}
	return span{}, false, 0, syntaxError(line, len(line))
}

// plain marks the bytes a string holds as themselves: printable ASCII
// other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// scanNumber scans the JSON number starting at line[i],
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, into p and returns the
// index just past it, parsing an integer's digits as it checks them.
func scanNumber(line []byte, i int, p *pair) (next int, err error) {
	p.val.lo = i
	p.integer = true
	if line[i] == '-' {
		p.neg = true
		i++
	}
	switch {
	case i < len(line) && line[i] == '0':
		i++
	case i < len(line) && '1' <= line[i] && line[i] <= '9':
		start := i
		i, p.mant = scanDigits(line, i)
		p.digits = i - start
	default:
		return 0, syntaxError(line, i)
	}
	if i < len(line) && line[i] == '.' {
		p.integer = false
		i++
		if i >= len(line) || !isDigit(line[i]) {
			return 0, syntaxError(line, i)
		}
		i = skipDigits(line, i)
	}
	if i < len(line) && (line[i] == 'e' || line[i] == 'E') {
		p.integer = false
		i++
		if i < len(line) && (line[i] == '+' || line[i] == '-') {
			i++
		}
		if i >= len(line) || !isDigit(line[i]) {
			return 0, syntaxError(line, i)
		}
		i = skipDigits(line, i)
	}
	p.val.hi = i
	return i, nil
}

// skipDigits returns the index past the run of digits at line[i].
func skipDigits(line []byte, i int) int {
	for i < len(line) && isDigit(line[i]) {
		i++
	}
	return i
}

// scanDigits returns the index past the run of digits at line[i] and
// the run's value. Past 19 digits the value wraps; callers count the
// digits to know.
func scanDigits(line []byte, i int) (int, uint64) {
	var mant uint64
	for ; i < len(line); i++ {
		c := line[i] - '0'
		if c > 9 {
			break
		}
		mant = mant*10 + uint64(c)
	}
	return i, mant
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// skipSpace skips JSON whitespace. Every whitespace byte is at most
// ' ', so a byte above it ends the run after one comparison.
func skipSpace(line []byte, i int) int {
	for i < len(line) && line[i] <= ' ' && (line[i] == ' ' || line[i] == '\t' || line[i] == '\n' || line[i] == '\r') {
		i++
	}
	return i
}

// syntaxError reports malformed JSON at byte i of the line.
func syntaxError(line []byte, i int) error {
	if i >= len(line) {
		return errors.New("corrupt or truncated trace line: unexpected end of line")
	}
	return fmt.Errorf("corrupt or truncated trace line: unexpected %q at byte %d", line[i], i+1)
}

// decodeJSONLine decodes a line the event decoder handed back — a
// manifest or metrics line — into tr through encoding/json.
func (d *lineDecoder) decodeJSONLine(tr *Trace, line []byte) error {
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return fmt.Errorf("corrupt or truncated trace line: %w", err)
	}
	switch probe.Kind {
	case "manifest":
		m := &Manifest{}
		if err := json.Unmarshal(line, m); err != nil {
			return fmt.Errorf("corrupt manifest: %w", err)
		}
		if m.Schema != SchemaVersion {
			return fmt.Errorf("trace is v%d, reader supports v%d", m.Schema, SchemaVersion)
		}
		tr.Manifest = m
		return nil
	case "metrics":
		s := &Snapshot{}
		if err := json.Unmarshal(line, s); err != nil {
			return fmt.Errorf("corrupt metrics line: %w", err)
		}
		tr.Metrics = s
		return nil
	}
	if _, ok := kindByName([]byte(probe.Kind)); !ok {
		return fmt.Errorf("unknown event kind %q", probe.Kind)
	}
	return fmt.Errorf("field %q: want a string or a number", d.nestedKey)
}
