package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
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

// lineDecoder decodes JSONL event lines without reflection, walking the
// schema table. An event line is one flat JSON object: its values are
// strings and numbers, its keys may come in any order with any JSON
// whitespace between tokens, and string escapes decode as encoding/json
// decodes them. Numbers go through strconv, exactly as encoding/json
// parses them, so every value is bit-identical to the reflective
// decoder's. An unknown, duplicated or mistyped field is an error that
// names it. The decoder reuses its buffers and interns link names, so a
// line allocates nothing.
type lineDecoder struct {
	line  []byte            // the line being decoded
	pairs []pair            // its key/value spans
	buf   []byte            // unescape scratch
	links map[string]string // interned link names
	// nestedKey is the key whose value made the last line non-flat
	// ("" when the line was flat), for naming it if the line turns out
	// to be an event.
	nestedKey string
}

// pair is one key/value of a flat line: raw string contents (between
// the quotes, still escaped when esc is set) or a number literal.
type pair struct {
	key, val       span
	keyEsc, valEsc bool
	str            bool // val is a string, not a number
	integer        bool // val is a number with no fraction or exponent
}

// span is the byte range [lo, hi) of the line. Spans rather than
// subslices keep pair pointer-free, so filling d.pairs is a plain copy.
type span struct{ lo, hi int }

func (d *lineDecoder) raw(s span) []byte { return d.line[s.lo:s.hi] }

func newLineDecoder() *lineDecoder {
	return &lineDecoder{links: make(map[string]string)}
}

// decode decodes one non-empty, trimmed line into an event. It returns
// errJSONLine for a line that is not an event or not flat.
func (d *lineDecoder) decode(line []byte) (Event, error) {
	if err := d.scan(line); err != nil {
		return Event{}, err
	}
	return d.event()
}

// scan splits a flat object into d.pairs, checking its JSON syntax.
func (d *lineDecoder) scan(line []byte) error {
	d.line = line
	d.pairs = d.pairs[:0]
	d.nestedKey = ""
	i := skipSpace(line, 0)
	if i >= len(line) || line[i] != '{' {
		return syntaxError(line, i)
	}
	i = skipSpace(line, i+1)
	if i < len(line) && line[i] == '}' {
		return d.scanEnd(line, i+1)
	}
	for {
		var p pair
		var err error
		if i >= len(line) || line[i] != '"' {
			return syntaxError(line, i)
		}
		if p.key, p.keyEsc, i, err = scanString(line, i); err != nil {
			return err
		}
		i = skipSpace(line, i)
		if i >= len(line) || line[i] != ':' {
			return syntaxError(line, i)
		}
		i = skipSpace(line, i+1)
		if i >= len(line) {
			return syntaxError(line, i)
		}
		switch c := line[i]; {
		case c == '"':
			p.str = true
			if p.val, p.valEsc, i, err = scanString(line, i); err != nil {
				return err
			}
		case c == '-' || '0' <= c && c <= '9':
			p.val.lo = i
			if i, p.integer, err = scanNumber(line, i); err != nil {
				return err
			}
			p.val.hi = i
		case c == '{' || c == '[' || c == 't' || c == 'f' || c == 'n':
			d.nestedKey = string(d.unquote(d.raw(p.key), p.keyEsc))
			return errJSONLine
		default:
			return syntaxError(line, i)
		}
		d.pairs = append(d.pairs, p)
		i = skipSpace(line, i)
		if i < len(line) && line[i] == ',' {
			i = skipSpace(line, i+1)
			continue
		}
		if i < len(line) && line[i] == '}' {
			return d.scanEnd(line, i+1)
		}
		return syntaxError(line, i)
	}
}

// scanEnd checks that nothing but whitespace follows the object.
func (d *lineDecoder) scanEnd(line []byte, i int) error {
	if i = skipSpace(line, i); i < len(line) {
		return syntaxError(line, i)
	}
	return nil
}

// Bits of the per-line seen-field set: the common fields, then one bit
// per schema payload field.
const (
	seenT = 1 << iota
	seenKind
	seenFlow
	seenLink
	seenPayload
)

// event resolves the scanned pairs against the schema.
func (d *lineDecoder) event() (Event, error) {
	// The kind decides which payload keys are valid, and it may come
	// anywhere in the line, so it is found first.
	var e Event
	kindAt := -1
	for i := range d.pairs {
		p := &d.pairs[i]
		if string(d.unquote(d.raw(p.key), p.keyEsc)) != "kind" {
			continue
		}
		if kindAt >= 0 {
			return Event{}, errors.New(`duplicate field "kind"`)
		}
		if !p.str {
			return Event{}, fmt.Errorf(`field "kind": want a string, got %s`, d.raw(p.val))
		}
		kindAt = i
	}
	var name []byte
	if kindAt >= 0 {
		p := &d.pairs[kindAt]
		name = d.unquote(d.raw(p.val), p.valEsc)
	}
	switch string(name) {
	case "manifest", "metrics":
		return Event{}, errJSONLine
	}
	k, ok := kindByName(name)
	if !ok {
		return Event{}, fmt.Errorf("unknown event kind %q", name)
	}
	e.Kind = k
	fields := schema[k].fields

	seen := 0
	for i := range d.pairs {
		p := &d.pairs[i]
		key, val := d.unquote(d.raw(p.key), p.keyEsc), d.raw(p.val)
		var bit int
		var err error
		switch string(key) {
		case "t":
			bit = seenT
			var t int64
			t, err = parseInt(p, val)
			e.At = sim.Time(t)
		case "kind":
			bit = seenKind
		case "flow":
			bit = seenFlow
			var f int64
			f, err = parseInt(p, val)
			e.Flow = int(f)
		case "link":
			bit = seenLink
			if !p.str {
				err = fmt.Errorf("want a string, got %s", val)
			} else {
				e.Link = d.intern(d.unquote(val, p.valEsc))
			}
		default:
			j := 0
			for j < len(fields) && fields[j].key != string(key) {
				j++
			}
			if j == len(fields) {
				return Event{}, fmt.Errorf("unknown field %q for event kind %q", key, schema[k].name)
			}
			bit = seenPayload << j
			if s := fields[j].slot; s.isFloat() {
				var v float64
				v, err = parseFloat(p, val)
				*e.floatSlot(s) = v
			} else {
				var v int64
				v, err = parseInt(p, val)
				*e.intSlot(s) = v
			}
		}
		if seen&bit != 0 {
			return Event{}, fmt.Errorf("duplicate field %q", d.unquote(d.raw(p.key), p.keyEsc))
		}
		seen |= bit
		if err != nil {
			return Event{}, fmt.Errorf("field %q: %w", d.unquote(d.raw(p.key), p.keyEsc), err)
		}
	}
	return e, nil
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

// parseInt parses an integer field. encoding/json rejects a fraction or
// exponent for an integer field, and so does this.
func parseInt(p *pair, val []byte) (int64, error) {
	if !p.integer {
		return 0, fmt.Errorf("want an integer, got %s", literal(p, val))
	}
	v, err := strconv.ParseInt(string(val), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("integer %s out of range", val)
	}
	return v, nil
}

func parseFloat(p *pair, val []byte) (float64, error) {
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
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns the index
// just past it and whether it has neither fraction nor exponent.
func scanNumber(line []byte, i int) (next int, integer bool, err error) {
	integer = true
	if line[i] == '-' {
		i++
	}
	switch {
	case i < len(line) && line[i] == '0':
		i++
	case i < len(line) && '1' <= line[i] && line[i] <= '9':
		i = skipDigits(line, i+1)
	default:
		return 0, false, syntaxError(line, i)
	}
	if i < len(line) && line[i] == '.' {
		integer = false
		i++
		if i >= len(line) || !isDigit(line[i]) {
			return 0, false, syntaxError(line, i)
		}
		i = skipDigits(line, i)
	}
	if i < len(line) && (line[i] == 'e' || line[i] == 'E') {
		integer = false
		i++
		if i < len(line) && (line[i] == '+' || line[i] == '-') {
			i++
		}
		if i >= len(line) || !isDigit(line[i]) {
			return 0, false, syntaxError(line, i)
		}
		i = skipDigits(line, i)
	}
	return i, integer, nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func skipDigits(line []byte, i int) int {
	for i < len(line) && isDigit(line[i]) {
		i++
	}
	return i
}

// skipSpace skips JSON whitespace.
func skipSpace(line []byte, i int) int {
	for i < len(line) {
		switch line[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
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
