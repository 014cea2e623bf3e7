package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/profile"
)

// TestScenarioKeyNoAlias: rate-mode and topology runs produce results of
// a different shape (contention stats, runtime distributions), so their
// keys may never alias a plain exact key, each other, or a different
// knob setting — while the disabled knobs leave existing exact keys
// byte-stable, so a live store written before the scenario API existed
// keeps serving single-copy campaigns.
func TestScenarioKeyNoAlias(t *testing.T) {
	pair := profile.CPU2017()[2].Expand(profile.Ref)[0]
	key := func(mut func(*Options)) string {
		o := testOpt()
		if mut != nil {
			mut(&o)
		}
		o = o.withDefaults()
		return pairKey(campaignKeyPrefix(&o), &pair)
	}

	exact := key(nil)
	eo := testOpt().withDefaults()
	if p := campaignKeyPrefix(&eo); strings.Contains(p, "rate=") || strings.Contains(p, "topo=") {
		t.Errorf("exact prefix %q mentions rate/topo; exact keys must not move with the feature", p)
	}
	for _, n := range []int{0, 1} {
		if key(func(o *Options) { o.RateCopies = n }) != exact {
			t.Errorf("RateCopies=%d changes the key over the zero value", n)
		}
	}

	r4 := key(func(o *Options) { o.RateCopies = 4 })
	r8 := key(func(o *Options) { o.RateCopies = 8 })
	topo := machine.Topology{PCores: 4, ECores: 4, Placement: machine.PlaceRandom}
	tp := key(func(o *Options) { o.Topology = topo })
	tpPinned := key(func(o *Options) {
		o.Topology = machine.Topology{PCores: 4, ECores: 4, Placement: machine.PlacePinnedE}
	})
	both := key(func(o *Options) { o.RateCopies = 4; o.Topology = topo })

	keys := map[string]string{
		"exact": exact, "rate=4": r4, "rate=8": r8,
		"topo=random": tp, "topo=pinned-e": tpPinned, "rate+topo": both,
	}
	for a, ka := range keys {
		for b, kb := range keys {
			if a != b && ka == kb {
				t.Errorf("scenario %s aliases %s", a, b)
			}
		}
	}

	// Both tags are versioned: a kernel revision (interleave quantum,
	// placement model) must invalidate stored results, not serve ones
	// computed by an older algorithm.
	ro := testOpt()
	ro.RateCopies = 4
	ro.Topology = topo
	ro = ro.withDefaults()
	p := campaignKeyPrefix(&ro)
	if !strings.Contains(p, "rate=4-v1") {
		t.Errorf("rate prefix %q lacks a versioned rate tag", p)
	}
	if !strings.Contains(p, "topo=4P4E-random-v1") {
		t.Errorf("topology prefix %q lacks a versioned topo tag", p)
	}
}

// TestScenarioExactTierOnly: contention and placement have no sampled or
// analytic shortcut, so the combination fails fast at the campaign level
// instead of silently screening contention-free results.
func TestScenarioExactTierOnly(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"rate+sampled", func(o *Options) { o.RateCopies = 4; o.Sampling = machine.DefaultSampling() }},
		{"rate+analytic", func(o *Options) { o.RateCopies = 4; o.Fidelity = machine.FidelityAnalytic }},
		{"topo+analytic", func(o *Options) {
			o.Topology = machine.Topology{PCores: 2, ECores: 2, Placement: machine.PlaceRandom}
			o.Fidelity = machine.FidelityAnalytic
		}},
	}
	for _, tc := range cases {
		o := testOpt()
		tc.mut(&o)
		if _, err := Characterize(fakePairs(1), o); err == nil {
			t.Errorf("%s: Characterize succeeded, want exact-tier rejection", tc.name)
		}
	}
}

// TestRateMPKIMonotone charts the paper-style scaling curve: for four
// workloads with distinct memory behavior, the shared-L3 MPKI at copies
// 1, 2, 4 and 8 must be non-decreasing — contenders dividing a fixed
// shared L3 can only add capacity misses. The L3 is shrunk so the
// aggregate footprint actually exceeds it (at the default 8 MiB every
// test-sized footprint fits and the curve is flat sample noise), and a
// small slack absorbs the seed decorrelation between copy sets — each
// copy count interleaves a different stream population. Copies=1 runs
// through the same interleaved kernel (characterizeScenario called
// directly, below the campaign normalization that maps 1 to the
// single-copy path) so the curve's anchor is measured, not assumed.
func TestRateMPKIMonotone(t *testing.T) {
	cfg, err := machine.ApplyAxis(machine.HaswellScaled(), "l2.size", 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	if cfg, err = machine.ApplyAxis(cfg, "l3.size", 256<<10); err != nil {
		t.Fatal(err)
	}
	pairs := []profile.Pair{
		profile.CPU2017()[0].Expand(profile.Test)[0],
		profile.CPU2017()[2].Expand(profile.Test)[0],
		profile.CPU2017()[4].Expand(profile.Test)[0],
		profile.CPU2017()[6].Expand(profile.Test)[0],
	}
	const slack = 0.98 // seed-to-seed sample variation between copy sets
	for _, pair := range pairs {
		prev := -1.0
		grew := false
		for _, copies := range []int{1, 2, 4, 8} {
			o := testOpt()
			o.Machine = cfg
			o = o.withDefaults()
			o.RateCopies = copies
			c, err := characterizeScenario(context.Background(), pair, o)
			if err != nil {
				t.Fatalf("%s copies=%d: %v", pair.Name(), copies, err)
			}
			if c.Rate == nil || c.Rate.Copies != copies {
				t.Fatalf("%s copies=%d: missing rate stats", pair.Name(), copies)
			}
			if c.Rate.SharedL3MPKI < prev*slack {
				t.Errorf("%s: shared-L3 MPKI not monotone: %d copies -> %.4f, previous %.4f",
					pair.Name(), copies, c.Rate.SharedL3MPKI, prev)
			}
			if c.Rate.SharedL3MPKI > prev {
				grew = true
			}
			prev = c.Rate.SharedL3MPKI
			if len(c.Rate.PerCopyIPC) != copies {
				t.Errorf("%s copies=%d: %d per-copy IPCs", pair.Name(), copies, len(c.Rate.PerCopyIPC))
			}
		}
		if !grew {
			t.Errorf("%s: MPKI curve never rises; no contention visible at 256KiB shared L3", pair.Name())
		}
	}
}

// TestTopologyModesDeterministic: a random-placement hybrid topology
// yields a multimodal runtime distribution — one mode per core class —
// whose weights and per-mode runtimes are a pure function of the
// workload seed. Two runs must agree exactly, or cached distributions
// would disagree with recomputed ones.
func TestTopologyModesDeterministic(t *testing.T) {
	pair := profile.CPU2017()[2].Expand(profile.Test)[0]
	run := func() *Characteristics {
		o := testOpt()
		o.Topology = machine.Topology{PCores: 2, ECores: 2, Placement: machine.PlaceRandom}
		c, err := CharacterizePair(pair, o)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("random-placement characteristics differ across identical runs")
	}
	if a.Runtime == nil {
		t.Fatal("topology run carries no runtime distribution")
	}
	if len(a.Runtime.Modes) < 2 {
		t.Fatalf("random placement on 2P2E yields %d mode(s), want >= 2", len(a.Runtime.Modes))
	}
	total := 0.0
	for _, m := range a.Runtime.Modes {
		if m.Weight <= 0 {
			t.Errorf("mode %s has non-positive weight %v", m.Class, m.Weight)
		}
		total += m.Weight
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("mode weights sum to %v, want 1", total)
	}
	// The modes are genuinely distinct: an E core is narrower and
	// slower, so its runtime mode must sit above the P core's.
	var pSec, eSec float64
	for _, m := range a.Runtime.Modes {
		switch m.Class {
		case "P":
			pSec = m.ExecSeconds
		case "E":
			eSec = m.ExecSeconds
		}
	}
	if pSec == 0 || eSec == 0 {
		t.Fatalf("distribution misses a core class: %+v", a.Runtime.Modes)
	}
	if eSec <= pSec {
		t.Errorf("E-core mode runs in %.4fs, not slower than P-core %.4fs", eSec, pSec)
	}
}

// TestTopologyBestWorstBracket: the best/worst placement policies
// simulate both classes and keep the winner, so best <= worst in
// execution time and both collapse to a single full-weight mode.
func TestTopologyBestWorstBracket(t *testing.T) {
	pair := profile.CPU2017()[2].Expand(profile.Test)[0]
	runAt := func(p machine.Placement) *Characteristics {
		o := testOpt()
		o.Topology = machine.Topology{PCores: 2, ECores: 2, Placement: p}
		c, err := CharacterizePair(pair, o)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	best, worst := runAt(machine.PlaceBest), runAt(machine.PlaceWorst)
	for name, c := range map[string]*Characteristics{"best": best, "worst": worst} {
		if c.Runtime == nil || len(c.Runtime.Modes) != 1 {
			t.Fatalf("%s placement: want exactly one surviving mode, got %+v", name, c.Runtime)
		}
		if w := c.Runtime.Modes[0].Weight; w != 1 {
			t.Errorf("%s placement: winner weight %v, want 1", name, w)
		}
	}
	if best.ExecSeconds > worst.ExecSeconds {
		t.Errorf("best placement (%.4fs) slower than worst (%.4fs)", best.ExecSeconds, worst.ExecSeconds)
	}
}

// TestScenarioString: the canonical scenario string round-trips the
// typed value and renders the default scenario as plain "exact".
func TestScenarioString(t *testing.T) {
	cases := []struct {
		sc   Scenario
		want string
	}{
		{Scenario{}, "exact"},
		{Scenario{Fidelity: machine.FidelitySampled}, "sampled"},
		{Scenario{Sampling: machine.DefaultSampling()}, "sampled"},
		{Scenario{Fidelity: machine.FidelityAnalytic}, "analytic"},
		{Scenario{IntraPairWorkers: 4}, "j-pair=4"},
		{Scenario{RateCopies: 8}, "rate=8"},
		{Scenario{
			RateCopies: 4,
			Topology:   machine.Topology{PCores: 4, ECores: 4, Placement: machine.PlaceRandom},
		}, "rate=4,topo=4P4E-random"},
	}
	for _, tc := range cases {
		if got := tc.sc.String(); got != tc.want {
			t.Errorf("Scenario%+v.String() = %q, want %q", tc.sc, got, tc.want)
		}
	}
}

// TestScenarioValidateFields: every rejection names the offending knob
// by its campaign-spec JSON field, while normalized scenarios — what
// Characterize validates — keep treating counts <= 1 as "off".
func TestScenarioValidateFields(t *testing.T) {
	sampling := machine.DefaultSampling()
	topo := machine.Topology{PCores: 4, ECores: 4, Placement: machine.PlaceRandom}
	cases := []struct {
		sc    Scenario
		field string
	}{
		{Scenario{IntraPairWorkers: -2}, "workers_per_pair"},
		{Scenario{RateCopies: -3}, "rate_copies"},
		{Scenario{RateCopies: MaxRateCopies + 1}, "rate_copies"},
		{Scenario{Fidelity: machine.FidelityAnalytic, Sampling: sampling}, "fidelity"},
		{Scenario{Fidelity: machine.FidelityAnalytic, RateCopies: 4}, "fidelity"},
		{Scenario{Fidelity: machine.FidelitySampled, Topology: topo}, "fidelity"},
		{Scenario{Sampling: sampling, RateCopies: 4}, "sampling"},
		{Scenario{Topology: machine.Topology{PCores: 4, Placement: machine.PlaceRandom}}, "topology"},
	}
	for _, tc := range cases {
		var fe *FieldError
		if err := tc.sc.Validate(); !errors.As(err, &fe) || fe.Field != tc.field {
			t.Errorf("%+v: Validate = %v, want a %q FieldError", tc.sc, err, tc.field)
		}
	}
	for _, sc := range []Scenario{
		{IntraPairWorkers: -2, RateCopies: -3},
		{RateCopies: MaxRateCopies, Topology: topo},
		{Fidelity: machine.FidelitySampled, IntraPairWorkers: 8},
	} {
		if err := sc.normalize().Validate(); err != nil {
			t.Errorf("%+v: normalized scenario rejected: %v", sc, err)
		}
	}
}

// TestScenarioOver: a campaign scenario layered over a base replaces the
// knobs it sets, inherits the ones it leaves at zero, and drops base
// knobs that cannot compose with an explicit analytic tier or
// contention scenario.
func TestScenarioOver(t *testing.T) {
	sampling := machine.DefaultSampling()
	base := Scenario{Sampling: sampling, IntraPairWorkers: 4}
	cases := []struct {
		name          string
		s, base, want Scenario
	}{
		{"zero inherits", Scenario{}, base, base},
		{"knob replaces", Scenario{IntraPairWorkers: 8}, base,
			Scenario{Sampling: sampling, IntraPairWorkers: 8}},
		{"analytic drops base sampling", Scenario{Fidelity: machine.FidelityAnalytic}, base,
			Scenario{Fidelity: machine.FidelityAnalytic, IntraPairWorkers: 4}},
		{"rate runs exact", Scenario{RateCopies: 4},
			Scenario{Fidelity: machine.FidelitySampled, Sampling: sampling},
			Scenario{RateCopies: 4}},
		{"explicit tier left for Validate", Scenario{Fidelity: machine.FidelitySampled, RateCopies: 4}, Scenario{},
			Scenario{Fidelity: machine.FidelitySampled, RateCopies: 4}},
	}
	for _, tc := range cases {
		if got := tc.s.Over(tc.base); got != tc.want {
			t.Errorf("%s: Over = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// FuzzParseScenario: the -scenario parser never panics, every scenario
// it accepts passes Validate, and the canonical String() of an accepted
// scenario parses back to the same normalized value. The seeds are the
// accepted and rejected spellings of the -scenario flag tests.
func FuzzParseScenario(f *testing.F) {
	for _, s := range []string{
		"", "exact", "sampled", "analytic", "sampling=131072/4096/4096",
		"j-pair=8", "rate=4", "exact,rate=4,topo=4P4E-random", " Exact , Rate=2 ",
		"turbo", "exact=1", "rate=x", "warp=9", "topo=4X4E-random",
		"analytic,sampling=262144/8192/8192", "analytic,rate=4", "sampled,topo=4P4E-random",
		"rate=-3", "j-pair=-2", "rate=65", "sampled,j-pair=4", "fidelity=sampled,jpair=4",
		"sampling=10/18446744073709551615/2", "sampling=18446744073709551615/18446744073709551615/1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseScenario(in)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseScenario(%q) accepted %+v, which fails Validate: %v", in, s, err)
		}
		if sp := s.Sampling; sp.DetailLen > sp.Period || sp.WarmupLen > sp.Period-sp.DetailLen {
			t.Fatalf("ParseScenario(%q) accepted sampling windows %+v that exceed the period", in, sp)
		}
		back, err := ParseScenario(s.String())
		if err != nil {
			t.Fatalf("ParseScenario(%q) = %+v; its string %q does not parse: %v", in, s, s.String(), err)
		}
		if back.normalize() != s.normalize() {
			t.Fatalf("ParseScenario(%q) = %+v; %q parses back to %+v", in, s.normalize(), s.String(), back.normalize())
		}
	})
}
