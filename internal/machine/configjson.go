package machine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/pipeline"
)

// This file gives Config a declarative JSON form so sweep specs and
// campaign submissions can name machine overrides instead of being
// limited to the built-in Haswell presets. The representation is
// component specs, not Go values: replacement policies, prefetchers and
// branch predictors travel as the same parameterized spec strings their
// Fingerprint methods emit ("srrip", "nextline:64:1", "gshare:14:12"),
// and UnmarshalJSON reconstructs the components and validates the
// result. The invariant the round-trip test pins: decode(encode(c))
// has exactly c's Fingerprint, so a configuration that crossed the wire
// derives the same result-cache content keys as the original — sweeps
// and fleet-forwarded campaigns stay bit-identical.

// levelJSON is one cache level's wire form.
type levelJSON struct {
	Name      string `json:"name,omitempty"`
	SizeBytes int    `json:"size_bytes"`
	Ways      int    `json:"ways"`
	LineBytes int    `json:"line_bytes"`
	// Policy is the replacement policy spec: "lru" (the default),
	// "plru", "srrip", or "random:seed=N".
	Policy string `json:"policy,omitempty"`
}

// configJSON is Config's wire form.
type configJSON struct {
	Name string    `json:"name"`
	L1I  levelJSON `json:"l1i"`
	L1D  levelJSON `json:"l1d"`
	L2   levelJSON `json:"l2"`
	L3   levelJSON `json:"l3"`
	// Prefetcher is "none" (or empty), "nextline:LINE:DEGREE" or
	// "stride:LINE:DEGREE".
	Prefetcher string `json:"prefetcher,omitempty"`
	// Predictor is the branch direction predictor spec in Fingerprint
	// syntax: "static-taken", "bimodal:BITS", "gshare:BITS:HIST",
	// "two-level-local:BITS:HIST", "tournament:BITS[...]" (the bracketed
	// suffix is informative and ignored on decode) or
	// "perceptron:BITS:HIST". Empty means the default tournament:14.
	Predictor       string          `json:"predictor,omitempty"`
	BTBBits         int             `json:"btb_bits"`
	RASDepth        int             `json:"ras_depth"`
	Pipeline        pipeline.Params `json:"pipeline"`
	ClockHz         float64         `json:"clock_hz"`
	UnifiedCodePath bool            `json:"unified_code_path,omitempty"`
}

func levelToJSON(l cache.Config) (levelJSON, error) {
	policy := ""
	switch p := l.Policy.(type) {
	case nil, cache.LRU:
		// omit: lru is the default
	case cache.TreePLRU, cache.SRRIP:
		policy = p.Name()
	case cache.Random:
		policy = p.Fingerprint()
	default:
		return levelJSON{}, fmt.Errorf("machine: cache policy %T has no JSON spec", l.Policy)
	}
	return levelJSON{
		Name: l.Name, SizeBytes: l.SizeBytes, Ways: l.Ways,
		LineBytes: l.LineBytes, Policy: policy,
	}, nil
}

func levelFromJSON(l levelJSON, fallbackName string) (cache.Config, error) {
	c := cache.Config{
		Name: l.Name, SizeBytes: l.SizeBytes, Ways: l.Ways, LineBytes: l.LineBytes,
	}
	if c.Name == "" {
		c.Name = fallbackName
	}
	switch {
	case l.Policy == "" || l.Policy == "lru":
		c.Policy = nil // Fingerprint renders nil as "lru" already
	case l.Policy == "plru":
		c.Policy = cache.TreePLRU{}
	case l.Policy == "srrip":
		c.Policy = cache.SRRIP{}
	case strings.HasPrefix(l.Policy, "random"):
		var p cache.Random
		if rest, ok := strings.CutPrefix(l.Policy, "random:seed="); ok {
			seed, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				return cache.Config{}, fmt.Errorf("machine: bad random policy seed in %q", l.Policy)
			}
			p.Seed = seed
		} else if l.Policy != "random" {
			return cache.Config{}, fmt.Errorf("machine: unknown cache policy spec %q", l.Policy)
		}
		c.Policy = p
	default:
		return cache.Config{}, fmt.Errorf("machine: unknown cache policy spec %q", l.Policy)
	}
	return c, nil
}

func prefetcherToJSON(pf cache.Prefetcher) (string, error) {
	switch p := pf.(type) {
	case nil:
		return "", nil
	case *cache.NextLinePrefetcher:
		return fmt.Sprintf("nextline:%d:%d", p.LineBytes, p.Degree), nil
	case *cache.StridePrefetcher:
		return fmt.Sprintf("stride:%d:%d", p.LineBytes, p.Degree), nil
	default:
		return "", fmt.Errorf("machine: prefetcher %T has no JSON spec", pf)
	}
}

func prefetcherFromJSON(spec string) (cache.Prefetcher, error) {
	if spec == "" || spec == "none" {
		return nil, nil
	}
	kind, a, b, err := splitSpec2(spec)
	if err != nil {
		return nil, fmt.Errorf("machine: bad prefetcher spec %q (want KIND:LINE:DEGREE)", spec)
	}
	switch kind {
	case "nextline":
		return &cache.NextLinePrefetcher{LineBytes: a, Degree: b}, nil
	case "stride":
		return &cache.StridePrefetcher{LineBytes: a, Degree: b}, nil
	default:
		return nil, fmt.Errorf("machine: unknown prefetcher kind %q", kind)
	}
}

// predictorToJSON renders the configured predictor's spec by
// constructing one and taking its fingerprint — the same identification
// Config.Fingerprint uses, so the wire spec and the cache key can never
// disagree about which predictor a configuration runs.
func predictorToJSON(newPred func() branch.Predictor) (string, error) {
	if newPred == nil {
		return "", nil
	}
	pred := newPred()
	f, ok := pred.(branch.Fingerprinter)
	if !ok {
		return "", fmt.Errorf("machine: predictor %q has no JSON spec (no Fingerprint)", pred.Name())
	}
	return f.Fingerprint(), nil
}

func predictorFromJSON(spec string) (func() branch.Predictor, error) {
	if spec == "" {
		return nil, nil // machine default (tournament:14)
	}
	// "tournament:14[gshare:...,bimodal:...]" — the bracketed component
	// detail is derived from BITS and ignored on decode.
	if i := strings.IndexByte(spec, '['); i >= 0 {
		spec = spec[:i]
	}
	kind, rest, _ := strings.Cut(spec, ":")
	switch kind {
	case "static", "static-taken":
		return func() branch.Predictor { return branch.Static{} }, nil
	case "bimodal":
		bits, err := strconv.Atoi(rest)
		if err != nil || bits <= 0 || bits > 24 {
			return nil, fmt.Errorf("machine: bad bimodal predictor spec %q", spec)
		}
		return func() branch.Predictor { return branch.NewBimodal(bits) }, nil
	case "tournament":
		bits, err := strconv.Atoi(rest)
		if err != nil || bits <= 0 || bits > 24 {
			return nil, fmt.Errorf("machine: bad tournament predictor spec %q", spec)
		}
		return func() branch.Predictor { return branch.NewTournament(bits) }, nil
	case "gshare", "two-level-local", "perceptron":
		f1, f2, ok := strings.Cut(rest, ":")
		a, err1 := strconv.Atoi(f1)
		b, err2 := strconv.Atoi(f2)
		// Bounds keep every table a decoded spec can build to tens of
		// MiB: two-level-local's pattern table has 2^HIST entries behind
		// 16-bit history registers, and a perceptron entry holds HIST+1
		// weights.
		maxA, maxB := 24, 64
		switch kind {
		case "two-level-local":
			maxB = 16
		case "perceptron":
			maxA = 16
		}
		if !ok || err1 != nil || err2 != nil || a <= 0 || a > maxA || b <= 0 || b > maxB {
			return nil, fmt.Errorf("machine: bad %s predictor spec %q (want %s:BITS:HIST)", kind, spec, kind)
		}
		switch kind {
		case "gshare":
			return func() branch.Predictor { return branch.NewGshare(a, b) }, nil
		case "two-level-local":
			return func() branch.Predictor { return branch.NewTwoLevelLocal(a, b) }, nil
		default:
			return func() branch.Predictor { return branch.NewPerceptron(a, b) }, nil
		}
	default:
		return nil, fmt.Errorf("machine: unknown predictor kind %q in spec %q", kind, spec)
	}
}

// splitSpec2 parses "kind:INT:INT".
func splitSpec2(spec string) (kind string, a, b int, err error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return "", 0, 0, fmt.Errorf("want 3 fields, got %d", len(parts))
	}
	a, err = strconv.Atoi(parts[1])
	if err != nil {
		return "", 0, 0, err
	}
	b, err = strconv.Atoi(parts[2])
	if err != nil {
		return "", 0, 0, err
	}
	return parts[0], a, b, nil
}

// MarshalJSON renders the configuration in its declarative wire form.
// Configurations carrying custom components without a spec form
// (arbitrary Policy/Prefetcher/Predictor implementations) fail loudly
// rather than serializing something that would not round-trip.
func (c Config) MarshalJSON() ([]byte, error) {
	var (
		cj  configJSON
		err error
	)
	cj.Name = c.Name
	if cj.L1I, err = levelToJSON(c.Hierarchy.L1I); err != nil {
		return nil, err
	}
	if cj.L1D, err = levelToJSON(c.Hierarchy.L1D); err != nil {
		return nil, err
	}
	if cj.L2, err = levelToJSON(c.Hierarchy.L2); err != nil {
		return nil, err
	}
	if cj.L3, err = levelToJSON(c.Hierarchy.L3); err != nil {
		return nil, err
	}
	if cj.Prefetcher, err = prefetcherToJSON(c.Hierarchy.Prefetcher); err != nil {
		return nil, err
	}
	if cj.Predictor, err = predictorToJSON(c.NewPredictor); err != nil {
		return nil, err
	}
	cj.BTBBits = c.BTBBits
	cj.RASDepth = c.RASDepth
	cj.Pipeline = c.Pipeline
	cj.ClockHz = c.ClockHz
	cj.UnifiedCodePath = c.UnifiedCodePath
	return json.Marshal(cj)
}

// UnmarshalJSON decodes the declarative wire form, reconstructs the
// component models from their specs, and validates the result — a
// successfully decoded Config is always runnable. Unknown fields are
// rejected so a typoed sweep axis or spec key fails the submission
// instead of silently sweeping the base machine.
func (c *Config) UnmarshalJSON(data []byte) error {
	var cj configJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cj); err != nil {
		return fmt.Errorf("machine: bad config JSON: %w", err)
	}
	var (
		out Config
		err error
	)
	out.Name = cj.Name
	if out.Hierarchy.L1I, err = levelFromJSON(cj.L1I, "l1i"); err != nil {
		return err
	}
	if out.Hierarchy.L1D, err = levelFromJSON(cj.L1D, "l1d"); err != nil {
		return err
	}
	if out.Hierarchy.L2, err = levelFromJSON(cj.L2, "l2"); err != nil {
		return err
	}
	if out.Hierarchy.L3, err = levelFromJSON(cj.L3, "l3"); err != nil {
		return err
	}
	if out.Hierarchy.Prefetcher, err = prefetcherFromJSON(cj.Prefetcher); err != nil {
		return err
	}
	if out.NewPredictor, err = predictorFromJSON(cj.Predictor); err != nil {
		return err
	}
	out.BTBBits = cj.BTBBits
	out.RASDepth = cj.RASDepth
	out.Pipeline = cj.Pipeline
	out.ClockHz = cj.ClockHz
	out.UnifiedCodePath = cj.UnifiedCodePath
	if err := out.Validate(); err != nil {
		return fmt.Errorf("machine: decoded config is invalid: %w", err)
	}
	*c = out
	return nil
}
