package branch

import (
	"fmt"
	"strconv"
	"strings"
)

// Spec is a branch direction predictor spec, spelled as in the machine's
// JSON form and fingerprint: "static-taken", "bimodal:B", "gshare:B:H",
// "two-level-local:B:H", "tournament:B", "perceptron:B:H" or "tage:B",
// where B is log2 of the main table's entries and H a history length in
// bits. The zero value is the default tournament:14. ParseSpec returns
// the canonical spec, so equal parsed specs build identical predictors;
// a predictor's identity in content keys is its spec's String.
type Spec string

// defaultSpec is what the zero Spec builds.
const defaultSpec = "tournament:14"

// entry is one catalogued predictor kind.
type entry struct {
	name string
	// max bounds each size parameter (the lower bound is 1), keeping
	// every table a spec can build to tens of MiB: two-level-local's
	// pattern table has 2^H entries behind 16-bit history registers,
	// and a perceptron entry holds H+1 weights.
	max   []int
	build func(p []int) Predictor
	// detail renders the derived sizes String appends after the
	// parameters; a parsed spec may carry it too.
	detail func(p []int) string
}

var catalogue = []entry{
	{name: "static-taken", build: func([]int) Predictor { return Static{} }},
	{name: "bimodal", max: []int{24}, build: func(p []int) Predictor { return NewBimodal(p[0]) }},
	{name: "gshare", max: []int{24, 64}, build: func(p []int) Predictor { return NewGshare(p[0], p[1]) }},
	{name: "two-level-local", max: []int{24, 16}, build: func(p []int) Predictor { return NewTwoLevelLocal(p[0], p[1]) }},
	{name: "tournament", max: []int{24}, build: func(p []int) Predictor { return NewTournament(p[0]) },
		detail: func(p []int) string {
			return fmt.Sprintf("[gshare:%d:%d,two-level-local:%d:%d]", p[0], p[0], p[0]-1, tournamentLocalHist)
		}},
	{name: "perceptron", max: []int{16, 64}, build: func(p []int) Predictor { return NewPerceptron(p[0], p[1]) }},
	{name: "tage", max: []int{20}, build: func(p []int) Predictor { return NewTAGE(p[0]) },
		detail: func([]int) string { return tageDetail }},
}

// Predictors lists one spec of every catalogued predictor at its
// ablation size, for sweeps and ablation benchmarks.
func Predictors() []Spec {
	return []Spec{"static-taken", "bimodal:14", "gshare:14:12", "two-level-local:12:12", "", "perceptron:10:24", "tage:11"}
}

// parse resolves a spec to its catalogue entry and size parameters.
func parse(s string) (*entry, []int, error) {
	switch s {
	case "":
		s = defaultSpec
	case "static":
		s = "static-taken"
	}
	name, rest, _ := strings.Cut(s, ":")
	for i := range catalogue {
		e := &catalogue[i]
		if e.name != name {
			continue
		}
		p := make([]int, len(e.max))
		for j := range p {
			if j > 0 {
				var ok bool
				if rest, ok = strings.CutPrefix(rest, ":"); !ok {
					return nil, nil, badSpec(s, e)
				}
			}
			n := len(rest) - len(strings.TrimLeft(rest, "0123456789"))
			v, err := strconv.Atoi(rest[:n])
			if err != nil || v < 1 || v > e.max[j] {
				return nil, nil, badSpec(s, e)
			}
			p[j], rest = v, rest[n:]
		}
		if rest != "" && (e.detail == nil || rest != e.detail(p)) {
			return nil, nil, badSpec(s, e)
		}
		return e, p, nil
	}
	return nil, nil, fmt.Errorf("unknown branch predictor %q", s)
}

func badSpec(s string, e *entry) error {
	want := e.name
	for i, m := range e.max {
		want += fmt.Sprintf(":%c(1-%d)", "BH"[i], m)
	}
	return fmt.Errorf("bad branch predictor %q (want %s)", s, want)
}

// short renders a parsed spec without its detail.
func short(e *entry, p []int) string {
	s := e.name
	for _, v := range p {
		s += ":" + strconv.Itoa(v)
	}
	return s
}

// ParseSpec validates a predictor spec and returns its canonical form.
// The default's spelling parses to the zero Spec.
func ParseSpec(s string) (Spec, error) {
	e, p, err := parse(s)
	if err != nil {
		return "", err
	}
	if c := short(e, p); c != defaultSpec {
		return Spec(c), nil
	}
	return "", nil
}

// String returns the canonical spec with its derived sizes, for example
// "tournament:14[gshare:14:14,two-level-local:13:12]" for the zero
// value: the predictor's fragment of the machine fingerprint. An invalid
// spec is returned as is.
func (s Spec) String() string {
	e, p, err := parse(string(s))
	if err != nil {
		return string(s)
	}
	if e.detail != nil {
		return short(e, p) + e.detail(p)
	}
	return short(e, p)
}

// MarshalText renders the spec's String.
func (s Spec) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses and canonicalizes a spec.
func (s *Spec) UnmarshalText(b []byte) (err error) {
	*s, err = ParseSpec(string(b))
	return err
}

// New builds a fresh predictor. It panics on an invalid spec; callers
// holding untrusted specs validate them with ParseSpec first.
func (s Spec) New() Predictor {
	e, p, err := parse(string(s))
	if err != nil {
		panic("branch: " + err.Error())
	}
	return e.build(p)
}
