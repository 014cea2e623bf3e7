package jsonx

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

func TestFloatMatchesEncodingJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999e-7, 1e-7, 1.5e-7,
		1e20, 1e21, 999999999999999999999.0, -1e21, 1e300, 5e-324, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 123456789.125, 1e-10, 2.5e-100}
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(r.Uint64())
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			floats = append(floats, f)
		}
	}
	for _, f := range floats {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		w := Writer{B: []byte("x")}
		w.Float(f)
		if w.Err != nil || !bytes.Equal(w.B[1:], want) {
			t.Fatalf("Float(%v) = %s, %v; want %s", f, w.B[1:], w.Err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(f)
		var w Writer
		w.Float(f)
		if w.Err == nil || w.Err.Error() != want.Error() {
			t.Fatalf("Float(%v) error %v, json.Marshal's %v", f, w.Err, want)
		}
		w.Raw("more")
		if len(w.B) != 0 {
			t.Fatal("Writer kept writing after an error")
		}
	}
}

func TestStringMatchesEncodingJSON(t *testing.T) {
	var all strings.Builder
	for b := 0; b < 256; b++ {
		all.WriteByte(byte(b))
	}
	strs := []string{"", "plain", all.String(), "<a href=\"x\">&amp;</a>",
		string(rune(0x2028)) + "mid" + string(rune(0x2029)), "\xff\xfe", "\xe2\x80", "caf\xc3\xa9 \xf0\x9f\x98\x80",
		"\x00\x1f\x7f\b\f\n\r\t\\/"}
	for _, s := range strs {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s, true); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q, html) = %s, want %s", s, got, want)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.Encode(s)
		if got := AppendString(nil, s, false); !bytes.Equal(got, bytes.TrimSuffix(buf.Bytes(), []byte("\n"))) {
			t.Fatalf("AppendString(%q) = %s, want %s", s, got, buf.Bytes())
		}
		// Decoding agrees with encoding/json, raw or escaped.
		for _, enc := range [][]byte{want, []byte(`"` + s + `"`)} {
			var ref string
			refErr := json.Unmarshal(enc, &ref)
			var d Decoder
			d.Reset(enc)
			got := d.String()
			if err := d.End(); (err != nil) != (refErr != nil) || err == nil && got != ref {
				t.Fatalf("String(%q) = %q, %v; encoding/json %q, %v", enc, got, err, ref, refErr)
			}
		}
	}
}

// TestDecoderAcceptsExactlyValidJSON: Skip accepts a document exactly
// when encoding/json does, and scalars decode as encoding/json decodes
// them.
func TestDecoderAcceptsExactlyValidJSON(t *testing.T) {
	docs := []string{
		`{}`, `[]`, ` {"a" : [1, -0, 0.5e+3, "x", true, false, null, {"b":{}}]} `, `"é😀\ud800x"`,
		`{"a":1,}`, `[1,]`, `[,1]`, `{"a" 1}`, `{"a":}`, `{a:1}`, `01`, `1.`, `.5`, `-`, `1e`, `1e+`,
		`+1`, `"\x"`, `"\u12"`, "\"a\tb\"", `tru`, `nul`, `[1 2]`, `{"a":1}}`, `[`, `{"a":1`, `"abc`,
		`[[[[]]]]`, `{"a":{"b":[{"c":null}]}}`, ``, `  `, `1 2`, `"\/"`,
	}
	for _, doc := range docs {
		var d Decoder
		d.Reset([]byte(doc))
		d.Skip()
		if err := d.End(); (err == nil) != json.Valid([]byte(doc)) {
			t.Errorf("%q: Skip error %v, json.Valid %v", doc, err, json.Valid([]byte(doc)))
		}
	}
	for _, num := range []string{"0", "-0", "1.5", "1e-7", "1E21", "18446744073709551615", "18446744073709551616", "-1", "1.0", "1e400"} {
		var ref struct {
			F float64
			U uint64
			I int
		}
		for _, field := range []string{"F", "U", "I"} {
			refErr := json.Unmarshal([]byte(`{"`+field+`":`+num+`}`), &ref)
			var d Decoder
			d.Reset([]byte(num))
			var ok bool
			switch field {
			case "F":
				ok = d.Float() == ref.F
			case "U":
				ok = d.Uint() == ref.U
			case "I":
				ok = d.Int() == ref.I
			}
			if err := d.End(); (err != nil) != (refErr != nil) || err == nil && !ok {
				t.Errorf("%s as %s: error %v, encoding/json error %v", num, field, err, refErr)
			}
		}
	}
}

func TestDecoderWalk(t *testing.T) {
	var d Decoder
	d.Reset([]byte(` {"n":null, "list":[1,2,3], "skip":{"x":[{}]}, "s":"v"} `))
	var list []uint64
	var s string
	sawNull := false
	if !d.Object() {
		t.Fatal("Object failed")
	}
	for key, ok := d.NextKey(); ok; key, ok = d.NextKey() {
		switch string(key) {
		case "n":
			sawNull = d.Null()
		case "list":
			for d.Array(); d.NextElem(); {
				list = append(list, d.Uint())
			}
		case "s":
			s = d.String()
		default:
			d.Skip()
		}
	}
	if err := d.End(); err != nil || !sawNull || len(list) != 3 || s != "v" {
		t.Fatalf("walk: err %v null %v list %v s %q", err, sawNull, list, s)
	}
	d.Reset([]byte(`{"a":tru}`))
	d.Object()
	for _, ok := d.NextKey(); ok; _, ok = d.NextKey() {
		d.Bool()
	}
	if d.End() == nil {
		t.Fatal("accepted a truncated literal")
	}
	d.Reset([]byte(strings.Repeat("[", maxDepth+2) + strings.Repeat("]", maxDepth+2)))
	d.Skip()
	if d.End() == nil {
		t.Fatal("accepted nesting beyond maxDepth")
	}
}
