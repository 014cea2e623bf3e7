// Package jsonx holds the building blocks of the repository's
// hand-written JSON codecs: a Writer whose float and string formatting
// reproduce encoding/json's output byte for byte, and a single-pass
// Decoder cursor. Types whose JSON sits on a hot path (the per-pair
// result record and the status that carries it) encode and decode
// through these instead of encoding/json's reflection, and stay
// byte-identical to what json.Marshal would have written for them.
package jsonx

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// Writer appends JSON tokens to B. The first value that JSON cannot
// represent (a NaN or infinite float) is recorded in Err and makes
// every later call a no-op, so an encoder writes its fields straight
// through and checks Err once.
type Writer struct {
	B   []byte
	Err error
}

// Raw appends s verbatim: object and array punctuation and quoted keys.
func (w *Writer) Raw(s string) {
	if w.Err == nil {
		w.B = append(w.B, s...)
	}
}

// Fail records err unless an earlier error is already recorded.
func (w *Writer) Fail(err error) {
	if w.Err == nil && err != nil {
		w.Err = err
	}
}

// Float appends f the way json.Marshal formats a float64: the shortest
// representation that parses back to the same bits, in 'f' form inside
// [1e-6, 1e21) and 'e' form outside it with a two-digit negative
// exponent shortened (e-07 becomes e-7). NaN and infinities fail with
// the same *json.UnsupportedValueError json.Marshal returns.
func (w *Writer) Float(f float64) {
	if w.Err != nil {
		return
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		w.Err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(w.B, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	w.B = b
}

// Uint appends an unsigned integer.
func (w *Writer) Uint(v uint64) {
	if w.Err == nil {
		w.B = strconv.AppendUint(w.B, v, 10)
	}
}

// Int appends a signed integer.
func (w *Writer) Int(v int64) {
	if w.Err == nil {
		w.B = strconv.AppendInt(w.B, v, 10)
	}
}

// Bool appends true or false.
func (w *Writer) Bool(v bool) {
	if w.Err == nil {
		w.B = strconv.AppendBool(w.B, v)
	}
}

// String appends s quoted and escaped exactly as json.Marshal does,
// HTML characters included.
func (w *Writer) String(s string) {
	if w.Err == nil {
		w.B = AppendString(w.B, s, true)
	}
}

const hex = "0123456789abcdef"

// AppendString appends s as a quoted JSON string escaped exactly as
// encoding/json escapes it: `"` and `\`, the control characters (\b,
// \f, \n, \r and \t by name, the rest as \u00XX), U+2028 and U+2029,
// invalid UTF-8 as the escaped replacement character U+FFFD and, when
// escapeHTML is set (json.Marshal's default; a json.Encoder after
// SetEscapeHTML(false) clears it), the characters <, > and &.
func AppendString(dst []byte, s string, escapeHTML bool) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && (!escapeHTML || b != '<' && b != '>' && b != '&') {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
