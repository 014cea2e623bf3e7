package branch

import "testing"

// TestSpecCatalogue pins the catalogue's spellings: each accepted
// spelling parses to its canonical spec, whose String carries the
// derived sizes and parses back to the same spec.
func TestSpecCatalogue(t *testing.T) {
	for _, tc := range []struct{ in, spec, str string }{
		{"", "", "tournament:14[gshare:14:14,two-level-local:13:12]"},
		{"tournament:14", "", "tournament:14[gshare:14:14,two-level-local:13:12]"},
		{"tournament:13[gshare:13:13,two-level-local:12:12]", "tournament:13", "tournament:13[gshare:13:13,two-level-local:12:12]"},
		{"static", "static-taken", "static-taken"},
		{"static-taken", "static-taken", "static-taken"},
		{"bimodal:014", "bimodal:14", "bimodal:14"},
		{"gshare:14:12", "gshare:14:12", "gshare:14:12"},
		{"two-level-local:10:12", "two-level-local:10:12", "two-level-local:10:12"},
		{"perceptron:10:24", "perceptron:10:24", "perceptron:10:24"},
		{"tage:11", "tage:11", "tage:11:5,15,44,64[bimodal:13]"},
		{"tage:11:5,15,44,64[bimodal:13]", "tage:11", "tage:11:5,15,44,64[bimodal:13]"},
	} {
		s, err := ParseSpec(tc.in)
		if err != nil || s != Spec(tc.spec) {
			t.Errorf("ParseSpec(%q) = %q, %v; want %q", tc.in, s, err, tc.spec)
			continue
		}
		if got := s.String(); got != tc.str {
			t.Errorf("%q.String() = %q, want %q", s, got, tc.str)
		}
		if back, err := ParseSpec(s.String()); err != nil || back != s {
			t.Errorf("ParseSpec(%q) = %q, %v; want %q", s.String(), back, err, s)
		}
	}
	for _, bad := range []string{
		"neural:9", "bimodal", "bimodal:0", "bimodal:25", "bimodal:14:2", "gshare:14",
		"gshare:25:12", "gshare:14:65", "two-level-local:1:17", "perceptron:17:24",
		"perceptron:10:65", "tage:21", "tage:11:5,15", "tournament:14[gshare:1:1]",
		"tournament:-3", "bimodal:+3", "static-taken:1", "gshare:99999999999999999999:1",
	} {
		if s, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) = %q, want an error", bad, s)
		}
	}
	for _, s := range Predictors() {
		if s.New() == nil {
			t.Errorf("%s built no predictor", s)
		}
	}
}
