package machine

import (
	"fmt"
	"strconv"
	"strings"
)

// Placement selects how the OS scheduler places a workload's copies on
// a heterogeneous topology's core classes. The zero value pins to
// P-cores, which is the homogeneous baseline semantics.
type Placement int

const (
	// PlacePinnedP pins every copy to the performance cores.
	PlacePinnedP Placement = iota
	// PlacePinnedE pins every copy to the efficiency cores.
	PlacePinnedE
	// PlaceRandom models an unaware scheduler: a copy lands on either
	// class with probability proportional to the class's core count, so
	// the runtime becomes a multimodal distribution (one mode per
	// class, weighted by placement probability).
	PlaceRandom
	// PlaceBest models a topology-aware scheduler: the class with the
	// best (lowest) runtime wins.
	PlaceBest
	// PlaceWorst is the adversarial bound: the slowest class wins.
	PlaceWorst
)

// String returns the canonical spelling accepted by ParsePlacement.
func (p Placement) String() string {
	switch p {
	case PlacePinnedP:
		return "pinned-p"
	case PlacePinnedE:
		return "pinned-e"
	case PlaceRandom:
		return "random"
	case PlaceBest:
		return "best"
	case PlaceWorst:
		return "worst"
	}
	return fmt.Sprintf("placement(%d)", int(p))
}

// ParsePlacement parses a placement policy name as spelled in flags and
// campaign specs. The empty string means pinned-p, matching the zero
// value; "pinned" alone pins to P-cores.
func ParsePlacement(s string) (Placement, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "pinned", "pinned-p", "pinned:p":
		return PlacePinnedP, nil
	case "pinned-e", "pinned:e":
		return PlacePinnedE, nil
	case "random":
		return PlaceRandom, nil
	case "best":
		return PlaceBest, nil
	case "worst":
		return PlaceWorst, nil
	}
	return 0, fmt.Errorf("machine: unknown placement %q (want pinned-p, pinned-e, random, best or worst)", s)
}

// Topology describes a heterogeneous machine as two core classes: the
// base Config's performance cores and efficiency cores derived from it
// (ECoreConfig). The zero value means a homogeneous machine (topology
// modelling disabled).
type Topology struct {
	// PCores and ECores are the class sizes.
	PCores, ECores int
	// Placement is the OS scheduling policy mapping copies to classes.
	Placement Placement
}

// Enabled reports whether the topology participates in a run; the zero
// value does not.
func (t Topology) Enabled() bool { return t.PCores > 0 || t.ECores > 0 }

// String returns the canonical "4P4E-random" spelling accepted by
// ParseTopology; the zero value renders as "". The string is folded
// into result-cache keys, so it must stay bijective with the value.
func (t Topology) String() string {
	if !t.Enabled() {
		return ""
	}
	return fmt.Sprintf("%dP%dE-%s", t.PCores, t.ECores, t.Placement)
}

// ParseTopology parses "4P4E-random" (also accepted: "4P+4E/random",
// lower case, missing placement meaning pinned-p). The empty string
// returns the disabled zero value.
func ParseTopology(s string) (Topology, error) {
	raw := strings.TrimSpace(s)
	if raw == "" || strings.EqualFold(raw, "off") || strings.EqualFold(raw, "none") {
		return Topology{}, nil
	}
	var t Topology
	core, place := raw, ""
	// The placement suffix starts at the first separator after the E
	// count ("4P4E-random", "4P+4E/random"); "+" only joins the classes.
	// Split before upper-casing: ToUpper may change the byte length of
	// invalid UTF-8, so indices into the upper-cased string are not
	// indices into raw.
	if i := strings.IndexAny(raw, "-/"); i >= 0 {
		core, place = raw[:i], raw[i+1:]
	}
	core = strings.ReplaceAll(strings.ToUpper(core), "+", "")
	p := strings.IndexByte(core, 'P')
	e := strings.IndexByte(core, 'E')
	if p < 0 || e < 0 || e < p || e != len(core)-1 {
		return Topology{}, fmt.Errorf("machine: bad topology %q (want e.g. 4P4E-random)", s)
	}
	var err error
	if t.PCores, err = strconv.Atoi(core[:p]); err != nil {
		return Topology{}, fmt.Errorf("machine: bad topology %q: P-core count: %v", s, err)
	}
	if t.ECores, err = strconv.Atoi(core[p+1 : e]); err != nil {
		return Topology{}, fmt.Errorf("machine: bad topology %q: E-core count: %v", s, err)
	}
	if t.Placement, err = ParsePlacement(place); err != nil {
		return Topology{}, fmt.Errorf("machine: bad topology %q: %v", s, err)
	}
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// Validate rejects topologies no run can honor.
func (t Topology) Validate() error {
	if !t.Enabled() {
		return nil
	}
	if t.PCores < 0 || t.ECores < 0 {
		return fmt.Errorf("machine: topology %q: negative core count", t)
	}
	switch t.Placement {
	case PlacePinnedP:
		if t.PCores < 1 {
			return fmt.Errorf("machine: topology %q pins to P-cores but has none", t)
		}
	case PlacePinnedE:
		if t.ECores < 1 {
			return fmt.Errorf("machine: topology %q pins to E-cores but has none", t)
		}
	case PlaceRandom, PlaceBest, PlaceWorst:
		if t.PCores < 1 || t.ECores < 1 {
			return fmt.Errorf("machine: topology %q needs both core classes for %s placement", t, t.Placement)
		}
	default:
		return fmt.Errorf("machine: topology %q: unknown placement %d", t, int(t.Placement))
	}
	return nil
}

// ECoreConfig derives the efficiency-core class from the performance
// base: half the dispatch width, 60% of the clock, and half the private
// L2 — the canonical little-core tradeoff (narrow, slower, less private
// cache; the shared L3 is a property of the package, not the class).
// The derivation is deterministic, so a topology never needs its own
// machine fingerprint: the topology string keys the whole scenario.
func ECoreConfig(base Config) Config {
	e := base
	e.Name = base.Name + "+ecore"
	e.Pipeline.Width = base.Pipeline.Width / 2
	if e.Pipeline.Width < 1 {
		e.Pipeline.Width = 1
	}
	e.ClockHz = base.ClockHz * 0.6
	e.Hierarchy.L2.SizeBytes = base.Hierarchy.L2.SizeBytes / 2
	return e
}

// ClassConfig resolves a class name ("P" or "E") to its configuration.
func (t Topology) ClassConfig(base Config, class string) Config {
	if class == "E" {
		return ECoreConfig(base)
	}
	return base
}

// Mode is one branch of a placement distribution: a core class and the
// probability that the scheduler lands the workload there.
type Mode struct {
	// Class is "P" or "E".
	Class string
	// Weight is the mode's probability; weights over a distribution sum
	// to 1.
	Weight float64
}

// Modes returns the placement distribution's branches in deterministic
// (P before E) order. Pinned policies yield one mode; random yields one
// per class weighted by core count; best/worst also yield both classes
// (both must be simulated — which one wins is decided on measured
// runtime, so the caller selects after running and renormalizes the
// survivor's weight to 1).
func (t Topology) Modes() []Mode {
	switch t.Placement {
	case PlacePinnedP:
		return []Mode{{Class: "P", Weight: 1}}
	case PlacePinnedE:
		return []Mode{{Class: "E", Weight: 1}}
	}
	total := float64(t.PCores + t.ECores)
	return []Mode{
		{Class: "P", Weight: float64(t.PCores) / total},
		{Class: "E", Weight: float64(t.ECores) / total},
	}
}
