package cache

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/xrand"
)

// This file is the package's component catalogue. A replacement policy
// and a prefetcher are named by a spec: a comparable string spelled as
// in the machine's JSON form and fingerprint. The catalogue parses and
// validates a spec, gives its canonical String, and builds fresh state
// from it — one per cache or hierarchy, so no two caches ever share a
// component's mutable state.

// Policy is a replacement-policy spec: "lru", "plru" (tree pseudo-LRU,
// power-of-two ways only), "srrip" (2-bit static re-reference interval
// prediction) or "random:seed=N" ("random" means seed 0). The zero
// value is LRU. ParsePolicy returns the canonical spec, so equal parsed
// specs build identical caches.
type Policy string

// Policies lists every catalogued replacement policy, for sweeps and
// ablation benchmarks.
func Policies() []Policy { return []Policy{"", "plru", "random:seed=0", "srrip"} }

// parsePolicy splits a spec into its catalogue kind and random seed.
func parsePolicy(s string) (kind string, seed uint64, err error) {
	switch s {
	case "", "lru":
		return "lru", 0, nil
	case "plru", "srrip", "random":
		return s, 0, nil
	}
	if rest, ok := strings.CutPrefix(s, "random:seed="); ok {
		if seed, err := strconv.ParseUint(rest, 10, 64); err == nil {
			return "random", seed, nil
		}
	}
	return "", 0, fmt.Errorf("unknown replacement policy %q (want lru, plru, srrip or random:seed=N)", s)
}

// ParsePolicy validates a policy spec and returns its canonical form.
func ParsePolicy(s string) (Policy, error) {
	kind, seed, err := parsePolicy(s)
	switch {
	case err != nil:
		return "", err
	case kind == "lru":
		return "", nil
	case kind == "random":
		return Policy("random:seed=" + strconv.FormatUint(seed, 10)), nil
	}
	return Policy(kind), nil
}

// String returns the canonical spec ("lru" for the zero value), the
// policy's fragment of the machine fingerprint. An invalid spec is
// returned as is.
func (p Policy) String() string {
	q, err := ParsePolicy(string(p))
	switch {
	case err != nil:
		return string(p)
	case q == "":
		return "lru"
	}
	return string(q)
}

// MarshalText renders the canonical spec.
func (p Policy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses and canonicalizes a spec.
func (p *Policy) UnmarshalText(b []byte) (err error) {
	*p, err = ParsePolicy(string(b))
	return err
}

// validate checks the spec against the associativity it would manage.
func (p Policy) validate(ways int) error {
	kind, _, err := parsePolicy(string(p))
	if err != nil {
		return err
	}
	if kind == "plru" && ways&(ways-1) != 0 {
		return fmt.Errorf("plru needs power-of-two associativity, not %d ways", ways)
	}
	return nil
}

// newState builds replacement state for sets sets of ways ways; the
// spec must have passed validate.
func (p Policy) newState(sets, ways int) Replacement {
	kind, seed, _ := parsePolicy(string(p))
	switch kind {
	case "plru":
		return newPLRU(sets, ways)
	case "srrip":
		return newSRRIP(sets, ways)
	case "random":
		return &randomState{ways: ways, rng: xrand.NewPCG32(seed ^ 0x9d5c)}
	}
	return &lruState{ways: ways, ages: make([]uint64, sets*ways)}
}

// Prefetcher is an L2 prefetcher spec: "nextline:LINE:DEG" fetches the
// DEG lines after every L1 demand miss, "stride:LINE:DEG" fetches DEG
// strides ahead once a constant stride has repeated. LINE is the line
// size in bytes, a power of two of at least 2; DEG is 1 to
// MaxPrefetchDegree. The zero value, spelled "none", attaches no
// prefetcher.
type Prefetcher string

// MaxPrefetchDegree bounds a prefetcher's degree: every L1 miss issues
// up to that many prefetch fills.
const MaxPrefetchDegree = 64

// PrefetchLineError reports a prefetcher line size that is not a power
// of two of at least 2.
type PrefetchLineError struct {
	Spec      string
	LineBytes int
}

func (e *PrefetchLineError) Error() string {
	return fmt.Sprintf("prefetcher %q: line size %d is not a power of two >= 2", e.Spec, e.LineBytes)
}

// PrefetchDegreeError reports a prefetcher degree outside 1 to
// MaxPrefetchDegree.
type PrefetchDegreeError struct {
	Spec   string
	Degree int
}

func (e *PrefetchDegreeError) Error() string {
	return fmt.Sprintf("prefetcher %q: degree %d outside [1,%d]", e.Spec, e.Degree, MaxPrefetchDegree)
}

// parsePrefetcher splits a spec into kind ("none", "nextline" or
// "stride"), line size and degree.
func parsePrefetcher(s string) (kind string, line, degree int, err error) {
	if s == "" || s == "none" {
		return "none", 0, 0, nil
	}
	f := strings.Split(s, ":")
	if len(f) != 3 || (f[0] != "nextline" && f[0] != "stride") {
		return "", 0, 0, fmt.Errorf("unknown prefetcher %q (want none, nextline:LINE:DEG or stride:LINE:DEG)", s)
	}
	line, err1 := strconv.Atoi(f[1])
	degree, err2 := strconv.Atoi(f[2])
	switch {
	case err1 != nil || err2 != nil:
		return "", 0, 0, fmt.Errorf("bad prefetcher %q (want %s:LINE:DEG)", s, f[0])
	case line < 2 || line&(line-1) != 0:
		return "", 0, 0, &PrefetchLineError{Spec: s, LineBytes: line}
	case degree < 1 || degree > MaxPrefetchDegree:
		return "", 0, 0, &PrefetchDegreeError{Spec: s, Degree: degree}
	}
	return f[0], line, degree, nil
}

// ParsePrefetcher validates a prefetcher spec and returns its canonical
// form.
func ParsePrefetcher(s string) (Prefetcher, error) {
	kind, line, degree, err := parsePrefetcher(s)
	if err != nil || kind == "none" {
		return "", err
	}
	return Prefetcher(fmt.Sprintf("%s:%d:%d", kind, line, degree)), nil
}

// WithLine returns the spec with its line size replaced by lineBytes,
// validated; none stays none.
func (p Prefetcher) WithLine(lineBytes int) (Prefetcher, error) {
	kind, _, degree, err := parsePrefetcher(string(p))
	if err != nil || kind == "none" {
		return p, err
	}
	return ParsePrefetcher(fmt.Sprintf("%s:%d:%d", kind, lineBytes, degree))
}

// String returns the canonical spec ("none" for the zero value). An
// invalid spec is returned as is.
func (p Prefetcher) String() string {
	q, err := ParsePrefetcher(string(p))
	switch {
	case err != nil:
		return string(p)
	case q == "":
		return "none"
	}
	return string(q)
}

// MarshalText renders the canonical spec.
func (p Prefetcher) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses and canonicalizes a spec.
func (p *Prefetcher) UnmarshalText(b []byte) (err error) {
	*p, err = ParsePrefetcher(string(b))
	return err
}

// newState builds fresh prefetcher state, nil for none; the spec must
// be valid.
func (p Prefetcher) newState() prefetcher {
	kind, line, degree, _ := parsePrefetcher(string(p))
	switch kind {
	case "nextline":
		return &nextLinePrefetcher{lineBytes: line, degree: degree}
	case "stride":
		return &stridePrefetcher{lineBytes: line, degree: degree}
	}
	return nil
}
