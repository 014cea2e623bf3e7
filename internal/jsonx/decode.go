package jsonx

import (
	"errors"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth bounds how deeply Skip descends into nested values it does
// not decode, so hostile input cannot exhaust the stack.
const maxDepth = 10000

// Decoder is a single-pass cursor over one JSON document. Callers walk
// the value they expect — Object/NextKey for objects, Array/NextElem
// for arrays, the scalar methods for leaves and Skip for anything they
// do not know — and check End once at the end: the first
// syntax or type error is recorded and turns every later call into a
// no-op returning a zero value, so a decoder never has to test an error
// per field and malformed input can never make it loop or panic.
//
// Keys are matched by the caller and are exact-case. Strings are
// unescaped as encoding/json unescapes them, with invalid UTF-8 and
// lone surrogates replaced by U+FFFD.
type Decoder struct {
	data []byte
	pos  int
	// first is set by Object and Array and cleared by the first
	// NextKey/NextElem, which then knows no separator precedes it.
	first   bool
	err     error
	scratch []byte
}

// Reset points the decoder at data, clearing any recorded error.
func (d *Decoder) Reset(data []byte) {
	*d = Decoder{data: data, scratch: d.scratch[:0]}
}

// Fail records err unless an earlier error is already recorded; a
// decoder reports semantic errors (a value out of range, a nested
// decode through another codec) through it.
func (d *Decoder) Fail(err error) {
	if d.err == nil && err != nil {
		d.err = err
	}
}

// End checks that only whitespace follows the decoded value and returns
// the decoder's error.
func (d *Decoder) End() error {
	d.ws()
	if d.err == nil && d.pos < len(d.data) {
		d.syntax("after top-level value")
	}
	return d.err
}

func (d *Decoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// syntax records a syntax error at the current position.
func (d *Decoder) syntax(context string) {
	if d.err != nil {
		return
	}
	if d.pos >= len(d.data) {
		d.err = errors.New("jsonx: unexpected end of JSON input")
		return
	}
	d.err = fmt.Errorf("jsonx: invalid character %q %s at offset %d", d.data[d.pos], context, d.pos)
}

// peek skips whitespace and returns the next byte, or 0 at the end of
// input or after an error.
func (d *Decoder) peek() byte {
	if d.err != nil {
		return 0
	}
	d.ws()
	if d.pos >= len(d.data) {
		return 0
	}
	return d.data[d.pos]
}

// literal consumes the keyword lit if it comes next.
func (d *Decoder) literal(lit string) bool {
	if d.peek() == 0 || len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		return false
	}
	d.pos += len(lit)
	return true
}

// Null consumes a null if one comes next and reports whether it did.
func (d *Decoder) Null() bool { return d.peek() == 'n' && d.literal("null") }

// Object opens an object. It returns false, consuming the value, when
// the value is null, and false with an error recorded when it is
// anything else but an object.
func (d *Decoder) Object() bool { return d.open('{', "looking for beginning of object") }

// Array opens an array; like Object it returns false on null or error.
func (d *Decoder) Array() bool { return d.open('[', "looking for beginning of array") }

func (d *Decoder) open(c byte, context string) bool {
	switch d.peek() {
	case c:
		d.pos++
		d.first = true
		return true
	case 'n':
		if d.literal("null") {
			return false
		}
	}
	d.syntax(context)
	return false
}

// NextKey advances to the next member of the innermost open object and
// returns its key, leaving the cursor on the member's value; the caller
// must consume that value (decode it or Skip it) before calling NextKey
// again. It returns false once the object is closed or on error. The
// key may alias decoder storage and is valid until the next call.
func (d *Decoder) NextKey() ([]byte, bool) {
	c := d.peek()
	if d.err != nil {
		return nil, false
	}
	if d.first {
		d.first = false
		if c == '}' {
			d.pos++
			return nil, false
		}
	} else {
		switch c {
		case '}':
			d.pos++
			return nil, false
		case ',':
			d.pos++
			c = d.peek()
		default:
			d.syntax("after object key:value pair")
			return nil, false
		}
	}
	if c != '"' {
		d.syntax("looking for beginning of object key string")
		return nil, false
	}
	key := d.str()
	if d.peek() != ':' {
		d.syntax("after object key")
		return nil, false
	}
	d.pos++
	return key, true
}

// NextElem advances to the next element of the innermost open array,
// leaving the cursor on it; the caller must consume it before calling
// NextElem again. It returns false once the array is closed or on
// error.
func (d *Decoder) NextElem() bool {
	c := d.peek()
	if d.err != nil {
		return false
	}
	if d.first {
		d.first = false
	} else if c == ',' {
		d.pos++
		return true
	} else if c != ']' {
		d.syntax("after array element")
		return false
	}
	if c == ']' {
		d.pos++
		return false
	}
	return true
}

// number consumes one JSON number token and returns its bytes.
func (d *Decoder) number() []byte {
	if d.peek(); d.err != nil {
		return nil
	}
	data := d.data
	start, i := d.pos, d.pos
	fail := func(context string) []byte {
		d.pos = i
		d.syntax(context)
		return nil
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && data[i] >= '1' && data[i] <= '9':
		i = digits(data, i)
	default:
		return fail("looking for beginning of value")
	}
	if i < len(data) && data[i] == '.' {
		if n := digits(data, i+1); n > i+1 {
			i = n
		} else {
			i++
			return fail("after decimal point in numeric literal")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		n := digits(data, i)
		if n == i {
			return fail("in exponent of numeric literal")
		}
		i = n
	}
	d.pos = i
	return data[start:i]
}

// digits returns the index just past the run of ASCII digits at i.
func digits(data []byte, i int) int {
	for i < len(data) && data[i] >= '0' && data[i] <= '9' {
		i++
	}
	return i
}

// Float decodes a number into a float64, failing where encoding/json
// does: on a non-number and on a value outside float64's range.
func (d *Decoder) Float() float64 {
	tok := d.number()
	if d.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.err = fmt.Errorf("jsonx: cannot decode number %s into a float64", tok)
		return 0
	}
	return f
}

// Uint decodes a number into a uint64; a fraction, exponent, sign or
// overflow fails as it does in encoding/json.
func (d *Decoder) Uint() uint64 {
	tok := d.number()
	if d.err != nil {
		return 0
	}
	v, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		d.err = fmt.Errorf("jsonx: cannot decode number %s into a uint64", tok)
		return 0
	}
	return v
}

// Int decodes a number into an int.
func (d *Decoder) Int() int {
	tok := d.number()
	if d.err != nil {
		return 0
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		d.err = fmt.Errorf("jsonx: cannot decode number %s into an int", tok)
		return 0
	}
	return int(v)
}

// Bool decodes true or false.
func (d *Decoder) Bool() bool {
	switch d.peek() {
	case 't':
		if d.literal("true") {
			return true
		}
	case 'f':
		if d.literal("false") {
			return false
		}
	}
	d.syntax("looking for beginning of boolean")
	return false
}

// String decodes a string.
func (d *Decoder) String() string {
	if d.peek() != '"' {
		d.syntax("looking for beginning of string")
		return ""
	}
	return string(d.str())
}

// str consumes the string the cursor is on and returns its unescaped
// bytes: a slice of the input when no unescaping is needed, the
// decoder's scratch buffer otherwise.
func (d *Decoder) str() []byte {
	data := d.data
	start := d.pos + 1
	for i := start; i < len(data); {
		c := data[i]
		if c == '"' {
			d.pos = i + 1
			return data[start:i]
		}
		if c == '\\' || c < ' ' {
			return d.unescape(start, i)
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && size == 1 {
			return d.unescape(start, i)
		}
		i += size
	}
	d.pos = len(data)
	d.syntax("in string literal")
	return nil
}

// unescape finishes decoding the string that opened at start, copying
// the clean prefix up to i into scratch and unescaping the rest.
func (d *Decoder) unescape(start, i int) []byte {
	data := d.data
	b := append(d.scratch[:0], data[start:i]...)
	defer func() { d.scratch = b[:0] }()
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return b
		case c == '\\':
			if i+1 >= len(data) {
				d.pos = len(data)
				d.syntax("in string escape code")
				return nil
			}
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := getu4(data[i:])
				if r < 0 {
					d.pos = i
					d.syntax("in \\u hexadecimal character escape")
					return nil
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, getu4(data[i:])); dec != utf8.RuneError {
						r = dec
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.pos = i + 1
				d.syntax("in string escape code")
				return nil
			}
			i += 2
		case c < ' ':
			d.pos = i
			d.syntax("in string literal")
			return nil
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	d.pos = len(data)
	d.syntax("in string literal")
	return nil
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// Skip consumes one value of any kind, validating its syntax.
func (d *Decoder) Skip() { d.skip(0) }

// Raw consumes one value and returns its bytes, for a member decoded
// through another codec.
func (d *Decoder) Raw() []byte {
	d.ws()
	start := d.pos
	d.Skip()
	if d.err != nil {
		return nil
	}
	return d.data[start:d.pos]
}

func (d *Decoder) skip(depth int) {
	if depth > maxDepth {
		d.Fail(errors.New("jsonx: exceeded max depth"))
		return
	}
	switch d.peek() {
	case '{':
		d.Object()
		for _, ok := d.NextKey(); ok; _, ok = d.NextKey() {
			d.skip(depth + 1)
		}
	case '[':
		d.Array()
		for d.NextElem() {
			d.skip(depth + 1)
		}
	case '"':
		d.str()
	case 't', 'f':
		d.Bool()
	case 'n':
		if !d.literal("null") {
			d.syntax("in literal null")
		}
	default:
		d.number()
	}
}
