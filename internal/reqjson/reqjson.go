// Package reqjson decodes the service's JSON request bodies without
// reflection. A request body is one object whose members are strings,
// booleans, or arrays of such objects; the caller names the members it
// knows, and the decoder reads them in one pass over the body.
//
// The verdict and the value are exactly those of encoding/json decoding
// into the equivalent tagged struct. Decode is json.Decoder with
// DisallowUnknownFields followed by nothing but whitespace; Lenient is
// json.Unmarshal, which skips unknown members and any JSON value under
// them. In both:
//
//   - member names match case-insensitively after unescaping, as
//     bytes.EqualFold matches them (so 'ſ' names an s and the Kelvin
//     sign a k);
//   - the last of duplicate members wins;
//   - null leaves a member as it was, and a top-level null is an empty
//     request;
//   - \u escapes decode with surrogate pairs, and lone surrogates and
//     invalid UTF-8 become U+FFFD;
//   - a value of the wrong JSON type is an error.
//
// Decoded strings are copies: none aliases the body, so a caller may
// reuse the body's buffer and keep the strings.
package reqjson

import (
	"bytes"
	"errors"
	"fmt"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: objects and arrays nested
// deeper than this are a syntax error.
const maxDepth = 10000

var errEnd = errors.New("unexpected end of JSON input")

// Decoder reads one JSON text. Its methods are called from the member
// callbacks of Decode, Lenient and Objects, and do nothing once an
// error is recorded: the first error is the verdict.
type Decoder struct {
	data    []byte
	pos     int
	depth   int
	lenient bool
	key     []byte // the current member's name, unescaped
	keyBuf  []byte // backing for keys that carry escapes or non-ASCII bytes
	err     error
}

// Decode decodes data, which must hold one JSON object or null with
// nothing but whitespace around it. member is called once per member,
// positioned at the member's value; it decodes the value when d.Key
// names one of its fields and reports whether it did. Any other member
// is an error naming it.
func Decode(data []byte, member func(d *Decoder) bool) error {
	d := Decoder{data: data}
	return d.decode(member)
}

// Lenient is Decode with unknown members skipped, together with any
// JSON value under them, as json.Unmarshal skips them. The whole text
// must still be valid JSON.
func Lenient(data []byte, member func(d *Decoder) bool) error {
	d := Decoder{data: data, lenient: true}
	return d.decode(member)
}

func (d *Decoder) decode(member func(d *Decoder) bool) error {
	d.object(member)
	if d.err == nil {
		d.skipSpace()
		if d.pos < len(d.data) {
			d.err = fmt.Errorf("unexpected data after JSON object at offset %d", d.pos)
		}
	}
	return d.err
}

// object decodes the object (or null) at the decoder's position,
// calling member for each of its members as Decode does.
func (d *Decoder) object(member func(d *Decoder) bool) {
	c, ok := d.begin()
	if !ok || c == 'n' {
		return
	}
	if c != '{' {
		d.typeError("an object", c)
		return
	}
	if !d.push() {
		return
	}
	for first := true; d.next('}', first); first = false {
		if !d.readKey() {
			return
		}
		if !member(d) {
			d.unknown()
		}
	}
	d.depth--
}

// Objects decodes the array of objects (or null) at the decoder's
// position into s, each element through member, and returns the
// slice, as encoding/json decodes into a slice it already holds: an
// element decodes over the one already at its index (so a repeated
// member decodes over the earlier array), the slice grows by append and
// is cut to the array's length, null makes it nil and [] empty.
func Objects[T any](d *Decoder, s []T, member func(*T, *Decoder) bool) []T {
	n := d.array(func(d *Decoder, i int) {
		if i == cap(s) {
			var zero T
			s = append(s, zero)
		}
		if i >= len(s) {
			s = s[:i+1]
		}
		el := &s[i]
		d.object(func(d *Decoder) bool { return member(el, d) })
	})
	switch {
	case n < 0:
		return nil
	case n == 0:
		return []T{}
	case n < len(s):
		return s[:n]
	}
	return s
}

// array decodes the array (or null) at the decoder's position, calling
// elem for each element with its index, and returns the number of
// elements, or -1 for null.
func (d *Decoder) array(elem func(d *Decoder, i int)) int {
	c, ok := d.begin()
	if !ok {
		return 0
	}
	if c == 'n' {
		return -1
	}
	if c != '[' {
		d.typeError("an array", c)
		return 0
	}
	if !d.push() {
		return 0
	}
	n := 0
	for ; d.next(']', n == 0); n++ {
		elem(d, n)
	}
	d.depth--
	return n
}

// Key reports whether the current member's name is name, compared as
// encoding/json compares it: exactly, or else by bytes.EqualFold.
func (d *Decoder) Key(name string) bool {
	return string(d.key) == name || bytes.EqualFold(d.key, []byte(name))
}

// String decodes the string (or null) at the decoder's position. A
// null returns cur unchanged.
func (d *Decoder) String(cur string) string {
	c, ok := d.begin()
	if !ok || c == 'n' {
		return cur
	}
	if c != '"' {
		d.typeError("a string", c)
		return cur
	}
	start, end, esc, ascii := d.scanString()
	if d.err != nil {
		return cur
	}
	raw := d.data[start:end]
	if !esc && (ascii || utf8.Valid(raw)) {
		return string(raw)
	}
	return string(appendUnquoted(make([]byte, 0, len(raw)), raw))
}

// Bool decodes true, false or null at the decoder's position. A null
// returns cur unchanged.
func (d *Decoder) Bool(cur bool) bool {
	c, ok := d.begin()
	switch {
	case !ok || c == 'n':
		return cur
	case c == 't':
		d.pos += len("true")
		return true
	case c == 'f':
		d.pos += len("false")
		return false
	}
	d.typeError("a boolean", c)
	return cur
}

// begin finds the next value and returns its first byte. An object,
// array or string is entered (the position moves past its opening
// byte) and a null is consumed, since every method reads it as "no
// value"; true and false are checked but left for Bool to consume. It
// reports false when the text is malformed.
func (d *Decoder) begin() (byte, bool) {
	if d.err != nil {
		return 0, false
	}
	c, ok := d.peek()
	if !ok {
		return 0, false
	}
	switch c {
	case '{', '[', '"':
		d.pos++
	case 'n':
		if !d.literal("null") {
			return 0, false
		}
		d.pos += len("null")
	case 't':
		return c, d.literal("true")
	case 'f':
		return c, d.literal("false")
	}
	return c, true
}

// peek skips whitespace and returns the next byte, recording an error
// at the end of the text.
func (d *Decoder) peek() (byte, bool) {
	d.skipSpace()
	if d.pos >= len(d.data) {
		d.err = errEnd
		return 0, false
	}
	return d.data[d.pos], true
}

// literal checks that the text at the position spells lit.
func (d *Decoder) literal(lit string) bool {
	for i := 0; i < len(lit); i++ {
		if d.pos+i >= len(d.data) || d.data[d.pos+i] != lit[i] {
			d.syntaxError(d.pos+i, "in literal "+lit)
			return false
		}
	}
	return true
}

// typeError records a value of the wrong JSON type, or a syntax error
// when c starts no value at all. A type error is an error in either
// mode, as encoding/json's UnmarshalTypeError is.
func (d *Decoder) typeError(want string, c byte) {
	var have string
	switch {
	case c == '{':
		have = "an object"
	case c == '[':
		have = "an array"
	case c == '"':
		have = "a string"
	case c == 't' || c == 'f':
		have = "a boolean"
	case c == '-' || '0' <= c && c <= '9':
		have = "a number"
	default:
		d.syntaxError(d.pos, "looking for beginning of value")
		return
	}
	if d.key != nil {
		d.err = fmt.Errorf("member %q: want %s, have %s", d.key, want, have)
	} else {
		d.err = fmt.Errorf("want %s, have %s", want, have)
	}
}

func (d *Decoder) syntaxError(at int, context string) {
	if at >= len(d.data) {
		d.err = errEnd
		return
	}
	d.err = fmt.Errorf("invalid character %q %s at offset %d", d.data[at], context, at)
}

// push enters an object or array, enforcing the nesting limit.
func (d *Decoder) push() bool {
	d.depth++
	if d.depth > maxDepth {
		d.err = fmt.Errorf("exceeded max depth at offset %d", d.pos)
		return false
	}
	return true
}

// next moves to the next member or element of the object or array
// being read, whose closing byte is close, and reports whether there is
// one. The first call after the opening byte finds either close or the
// first entry; later calls find a comma or close.
func (d *Decoder) next(close byte, first bool) bool {
	if d.err != nil {
		return false
	}
	c, ok := d.peek()
	switch {
	case !ok:
		return false
	case c == close:
		d.pos++
		return false
	case first:
		return true
	case c == ',':
		d.pos++
		return true
	case close == '}':
		d.syntaxError(d.pos, "after object key:value pair")
	default:
		d.syntaxError(d.pos, "after array element")
	}
	return false
}

// readKey reads a member's name and its colon, leaving the position at
// the member's value.
func (d *Decoder) readKey() bool {
	if c, ok := d.peek(); !ok || c != '"' {
		d.syntaxError(d.pos, "looking for beginning of object key string")
		return false
	}
	d.pos++
	start, end, esc, ascii := d.scanString()
	if d.err != nil {
		return false
	}
	if raw := d.data[start:end]; !esc && ascii {
		d.key = raw
	} else {
		d.keyBuf = appendUnquoted(d.keyBuf[:0], raw)
		d.key = d.keyBuf
	}
	if c, ok := d.peek(); !ok || c != ':' {
		d.syntaxError(d.pos, "after object key")
		return false
	}
	d.pos++
	return true
}

// unknown handles a member no field names: an error naming it, or in
// lenient mode a skipped value.
func (d *Decoder) unknown() {
	if !d.lenient {
		d.err = fmt.Errorf("unknown field %q", d.key)
		return
	}
	d.skipValue()
}

// skipValue validates and skips one JSON value of any type; only a
// lenient decoder skips, so an object's members are all unknown and
// skipped in turn.
func (d *Decoder) skipValue() {
	c, ok := d.peek()
	switch {
	case !ok:
	case c == '{':
		d.object(noMember)
	case c == '[':
		d.array(skipElem)
	case c == '"':
		d.pos++
		d.scanString()
	case c == 't' || c == 'f' || c == 'n':
		d.Bool(false)
	case c == '-' || '0' <= c && c <= '9':
		d.scanNumber()
	default:
		d.syntaxError(d.pos, "looking for beginning of value")
	}
}

func noMember(*Decoder) bool { return false }

func skipElem(d *Decoder, _ int) { d.skipValue() }

// scanNumber validates and skips a number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *Decoder) scanNumber() {
	if d.data[d.pos] == '-' {
		d.pos++
	}
	if d.pos < len(d.data) && d.data[d.pos] == '0' {
		d.pos++
	} else if !d.digits() {
		return
	}
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		if !d.digits() {
			return
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		d.digits()
	}
}

// digits skips one or more decimal digits.
func (d *Decoder) digits() bool {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	if d.pos == start {
		d.syntaxError(d.pos, "in numeric literal")
		return false
	}
	return true
}

func (d *Decoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// plainByte marks the string bytes that stand for themselves: ASCII
// other than the quote, the backslash and control characters.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// scanString validates the string whose opening quote is just behind
// the position and moves past its closing quote. It returns the bounds
// of the raw contents and whether they hold escapes and whether only
// ASCII bytes.
func (d *Decoder) scanString() (start, end int, esc, ascii bool) {
	data := d.data
	i := d.pos
	start, ascii = i, true
	for {
		for i < len(data) && plainByte[data[i]] {
			i++
		}
		if i >= len(data) {
			d.err = errEnd
			return
		}
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			return start, i, esc, ascii
		case c == '\\':
			esc = true
			if i+1 >= len(data) {
				d.err = errEnd
				return
			}
			switch data[i+1] {
			case 'b', 'f', 'n', 'r', 't', '\\', '/', '"':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if k >= len(data) {
						d.err = errEnd
						return
					}
					if hexVal(data[k]) < 0 {
						d.syntaxError(k, "in \\u hexadecimal character escape")
						return
					}
				}
				i += 6
			default:
				d.syntaxError(i+1, "in string escape code")
				return
			}
		case c < 0x20:
			d.syntaxError(i, "in string literal")
			return
		default: // a non-ASCII byte, checked as UTF-8 by the caller
			ascii = false
			i++
		}
	}
}

func hexVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		v := hexVal(c)
		if v < 0 {
			return -1
		}
		r = r<<4 | v
	}
	return r
}

// appendUnquoted appends the value of the validated raw string contents
// s to dst, as encoding/json unquotes them: escapes decoded, a valid
// surrogate pair joined, and a lone surrogate or an invalid UTF-8 byte
// replaced by U+FFFD.
func appendUnquoted(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			switch s[i+1] {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := getu4(s[i:])
				i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, getu4(s[i:])); dec != utf8.RuneError {
						dst = utf8.AppendRune(dst, dec)
						i += 6
						continue
					}
					r = utf8.RuneError
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, s[i+1])
			}
			i += 2
		case c < utf8.RuneSelf:
			j := i + 1
			for j < len(s) && s[j] != '\\' && s[j] < utf8.RuneSelf {
				j++
			}
			dst = append(dst, s[i:j]...)
			i = j
		default:
			r, size := utf8.DecodeRune(s[i:])
			if r == utf8.RuneError && size == 1 {
				dst = utf8.AppendRune(dst, utf8.RuneError)
			} else {
				dst = append(dst, s[i:i+size]...)
			}
			i += size
		}
	}
	return dst
}
