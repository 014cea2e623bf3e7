package machine

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/pipeline"
)

// This file gives Config a declarative JSON form so sweep specs and
// campaign submissions can name machine overrides instead of being
// limited to the built-in Haswell presets. Components are already specs
// (cache.Policy, cache.Prefetcher, branch.Spec), so the wire form copies
// them: each travels as its canonical String ("srrip",
// "nextline:64:1", "gshare:14:12") and is parsed back by its catalogue.
// The invariant the round-trip test pins: decode(encode(c)) has exactly
// c's Fingerprint, so a configuration that crossed the wire derives the
// same result-cache content keys as the original — sweeps and
// fleet-forwarded campaigns stay bit-identical.

// configJSON is Config's wire form. A level is a cache.Config, whose
// policy is omitted when it is LRU.
type configJSON struct {
	Name string       `json:"name"`
	L1I  cache.Config `json:"l1i"`
	L1D  cache.Config `json:"l1d"`
	L2   cache.Config `json:"l2"`
	L3   cache.Config `json:"l3"`
	// Prefetcher is omitted when none is attached.
	Prefetcher cache.Prefetcher `json:"prefetcher,omitempty"`
	// Predictor is always written, as its String: the default reads
	// "tournament:14[gshare:14:14,two-level-local:13:12]".
	Predictor       branch.Spec     `json:"predictor"`
	BTBBits         int             `json:"btb_bits"`
	RASDepth        int             `json:"ras_depth"`
	Pipeline        pipeline.Params `json:"pipeline"`
	ClockHz         float64         `json:"clock_hz"`
	UnifiedCodePath bool            `json:"unified_code_path,omitempty"`
}

// MarshalJSON renders the configuration in its declarative wire form.
func (c Config) MarshalJSON() ([]byte, error) {
	h := c.Hierarchy
	return json.Marshal(configJSON{
		Name: c.Name, L1I: h.L1I, L1D: h.L1D, L2: h.L2, L3: h.L3,
		Prefetcher: h.Prefetcher, Predictor: c.Predictor,
		BTBBits: c.BTBBits, RASDepth: c.RASDepth, Pipeline: c.Pipeline,
		ClockHz: c.ClockHz, UnifiedCodePath: c.UnifiedCodePath,
	})
}

// UnmarshalJSON decodes the declarative wire form, parsing every
// component spec, names unnamed levels, and validates the result — a
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
	out := Config{
		Name: cj.Name,
		Hierarchy: cache.HierarchyConfig{
			L1I: cj.L1I, L1D: cj.L1D, L2: cj.L2, L3: cj.L3, Prefetcher: cj.Prefetcher,
		},
		Predictor: cj.Predictor,
		BTBBits:   cj.BTBBits, RASDepth: cj.RASDepth, Pipeline: cj.Pipeline,
		ClockHz: cj.ClockHz, UnifiedCodePath: cj.UnifiedCodePath,
	}
	h := &out.Hierarchy
	for l, name := range map[*cache.Config]string{&h.L1I: "l1i", &h.L1D: "l1d", &h.L2: "l2", &h.L3: "l3"} {
		if l.Name == "" {
			l.Name = name
		}
	}
	if err := out.Validate(); err != nil {
		return fmt.Errorf("machine: decoded config is invalid: %w", err)
	}
	*c = out
	return nil
}
