package machine

import (
	"fmt"
	"sort"
)

// This file implements machine-config axis application for the
// design-space sweep subsystem (internal/sweep): an axis names one
// numeric configuration parameter ("l3.size", "l2.ways", "line", ...)
// and a value, and ApplyAxis returns a copy of the configuration with
// that parameter replaced. Axes compose: a sweep applies one axis per
// swept dimension to the same base configuration, then validates the
// resulting point once with Config.Validate.

// axisSetter mutates one configuration parameter in place.
type axisSetter func(*Config, int64) error

// axisParams maps axis parameter names to their setters. Cache levels
// expose size (bytes) and ways; "line" sets the line size of every
// level at once, and of a configured prefetcher, so it keeps fetching
// whole lines — per-level line sizes are deliberately not exposed
// because the hierarchy models a single line size end to end (mixed
// line sizes would make the inter-level insertion rates physically
// meaningless).
var axisParams = map[string]axisSetter{
	"l1i.size": func(c *Config, v int64) error { c.Hierarchy.L1I.SizeBytes = int(v); return nil },
	"l1d.size": func(c *Config, v int64) error { c.Hierarchy.L1D.SizeBytes = int(v); return nil },
	"l2.size":  func(c *Config, v int64) error { c.Hierarchy.L2.SizeBytes = int(v); return nil },
	"l3.size":  func(c *Config, v int64) error { c.Hierarchy.L3.SizeBytes = int(v); return nil },
	"l1i.ways": func(c *Config, v int64) error { c.Hierarchy.L1I.Ways = int(v); return nil },
	"l1d.ways": func(c *Config, v int64) error { c.Hierarchy.L1D.Ways = int(v); return nil },
	"l2.ways":  func(c *Config, v int64) error { c.Hierarchy.L2.Ways = int(v); return nil },
	"l3.ways":  func(c *Config, v int64) error { c.Hierarchy.L3.Ways = int(v); return nil },
	"line": func(c *Config, v int64) error {
		c.Hierarchy.L1I.LineBytes = int(v)
		c.Hierarchy.L1D.LineBytes = int(v)
		c.Hierarchy.L2.LineBytes = int(v)
		c.Hierarchy.L3.LineBytes = int(v)
		pf, err := c.Hierarchy.Prefetcher.WithLine(int(v))
		c.Hierarchy.Prefetcher = pf
		return err
	},
	"btb.bits":  func(c *Config, v int64) error { c.BTBBits = int(v); return nil },
	"ras.depth": func(c *Config, v int64) error { c.RASDepth = int(v); return nil },
}

// AxisParams returns the supported axis parameter names, sorted.
func AxisParams() []string {
	names := make([]string, 0, len(axisParams))
	for n := range axisParams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ApplyAxis returns cfg with the named parameter set to value. The
// returned configuration is a copy — cfg is never mutated — but is not
// yet validated: a sweep applies every axis of a grid point first and
// validates the point once. Unknown parameters and non-positive values
// are rejected here so the error names the axis, not a derived
// geometry constraint.
func ApplyAxis(cfg Config, param string, value int64) (Config, error) {
	set, ok := axisParams[param]
	if !ok {
		return Config{}, fmt.Errorf("machine: unknown axis parameter %q (supported: %v)", param, AxisParams())
	}
	if value <= 0 {
		return Config{}, fmt.Errorf("machine: axis %s: non-positive value %d", param, value)
	}
	if err := set(&cfg, value); err != nil {
		return Config{}, fmt.Errorf("machine: axis %s: %w", param, err)
	}
	return cfg, nil
}
