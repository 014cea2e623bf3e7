package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/machine"
	"repro/internal/perf"
	"repro/internal/profile"
)

// MaxRateCopies bounds the rate-mode copy count: every copy owns a
// synthetic generator and a private L1/L2 hierarchy for the whole run,
// so beyond this the interleave's memory footprint stops being a
// sensible single-process simulation.
const MaxRateCopies = 64

// Scenario bundles every knob that changes what a campaign measures —
// the fidelity tier, the sampling knob, intra-pair parallelism, the
// rate-mode copy count and the machine topology — into one typed value
// with a canonical string form. Options embeds it, so it is the one
// stored copy of those knobs: CLIs parse one -scenario flag with
// ParseScenario, the server decodes one spec object, and every path
// checks it with Validate and canonicalizes it with normalize.
type Scenario struct {
	// Fidelity selects the simulation tier: FidelityExact (the zero
	// value) simulates every uop, FidelitySampled is shorthand for the
	// default Sampling knob (an explicit Sampling knob wins), and
	// FidelityAnalytic predicts cache behaviour from a reuse-distance
	// profile instead of simulating it (internal/analytic) — the
	// fastest tier, with error floors gated per metric family.
	// FidelityAnalytic does not compose with Sampling. Like Sampling the
	// tier changes result bits, so non-exact tiers are folded into every
	// result-cache key and can never alias each other or an exact entry.
	Fidelity machine.Fidelity
	// Sampling, when enabled, runs each pair with SMARTS-style systematic
	// sampling (machine.Options.Sampling): only periodic detailed windows
	// are simulated and the counters are extrapolated, trading a bounded
	// metric error for a multi-x speedup. Unlike BatchSize it changes
	// result bits, so the knob is folded into every result-cache key —
	// sampled and exact results can never alias in the memory or store
	// tiers. Each pair's Characteristics.Sampling then carries the
	// per-metric error estimate.
	Sampling machine.Sampling
	// IntraPairWorkers, when >1, splits each pair's measured stream into
	// that many windows simulated concurrently and stitched with the
	// frozen-cache warm-state technique (machine.RunParallel) — the knob
	// that makes a single large pair scale past one core where
	// Parallelism maxes out at the number of pairs. Results are an
	// estimate of the sequential run (bit-reproducible for a fixed
	// worker count, tolerance-gated against sequential), so the knob is
	// folded into every result-cache key and can never alias an exact
	// sequential entry. Exact-tier only: the sampled and analytic tiers
	// already re-tile or skip the stream, so the knob normalizes away
	// there instead of erroring — a globally set flag composes with
	// every tier.
	IntraPairWorkers int
	// RateCopies, when >1, characterizes each pair as a rate-mode run:
	// that many copies of the workload on identical cores with private
	// L1/L2 contending on one shared inclusive L3
	// (machine.RunShared), reported with per-copy and aggregate
	// throughput plus shared-level contention stats
	// (Characteristics.Rate). Contention changes result bits, so the
	// copy count is folded into every result-cache key with a versioned
	// suffix and can never alias a single-copy entry. Exact-tier only;
	// at most MaxRateCopies.
	RateCopies int
	// Topology, when enabled, runs each pair on a heterogeneous
	// P-core/E-core machine under the topology's OS-placement policy;
	// non-deterministic policies (random) yield a runtime distribution
	// (Characteristics.Runtime) instead of a point estimate. Folded into
	// every result-cache key via its canonical string. Exact-tier only;
	// composes with RateCopies (each mode runs the full contention
	// scenario on its class).
	Topology machine.Topology
}

// Apply stores the scenario in the options, returning the result. It
// does not normalize; Characterize does that, so a scenario round-trips
// through Options exactly like individually set fields.
func (s Scenario) Apply(o Options) Options {
	o.Scenario = s
	return o
}

// Over layers s over base, the way a campaign spec's scenario refines a
// server's base options: every knob s sets replaces base's, and a knob
// s leaves at its zero value (exact tier, sampling off, counts <= 0,
// homogeneous topology) inherits base's. Base knobs that cannot
// compose with what s asks for are dropped: an analytic tier in s drops
// the base sampling knob, and a rate or topology scenario whose tier s
// leaves unset runs exact whatever the base tier.
func (s Scenario) Over(base Scenario) Scenario {
	m := base
	if s.Fidelity != machine.FidelityExact {
		m.Fidelity = s.Fidelity
	}
	if s.Sampling.Enabled() {
		m.Sampling = s.Sampling
	}
	if s.IntraPairWorkers > 0 {
		m.IntraPairWorkers = s.IntraPairWorkers
	}
	if s.RateCopies > 0 {
		m.RateCopies = s.RateCopies
	}
	if s.Topology.Enabled() {
		m.Topology = s.Topology
	}
	explicitTier := s.Fidelity != machine.FidelityExact || s.Sampling.Enabled()
	switch {
	case s.Fidelity == machine.FidelityAnalytic:
		m.Sampling = machine.Sampling{}
	case (m.RateCopies > 1 || m.Topology.Enabled()) && !explicitTier:
		m.Fidelity = machine.FidelityExact
		m.Sampling = machine.Sampling{}
	}
	return m
}

// normalize maps every spelling of a scenario onto one canonical value,
// so equivalent spellings derive byte-identical cache keys. Invalid
// combinations (analytic with sampling) are left as they are for
// Validate to reject.
func (s Scenario) normalize() Scenario {
	// The sampled tier with no explicit knob means the default knob, and
	// an explicit knob under the exact tier means the sampled tier.
	if s.Fidelity == machine.FidelitySampled && !s.Sampling.Enabled() {
		s.Sampling = machine.DefaultSampling()
	}
	if s.Sampling.Enabled() && s.Fidelity == machine.FidelityExact {
		s.Fidelity = machine.FidelitySampled
	}
	// A single copy is not a rate run, and a disabled topology is the
	// homogeneous machine, whatever placement it names.
	if s.RateCopies <= 1 {
		s.RateCopies = 0
	}
	if !s.Topology.Enabled() {
		s.Topology = machine.Topology{}
	}
	// Intra-pair parallelism is an exact-tier execution knob; on the
	// other tiers (or at trivial worker counts) it normalizes to zero so
	// cache keys stay byte-stable and the dispatch never has to
	// reconcile it with sampling. Rate and topology scenarios run on the
	// shared-L3 interleaved kernel, which the window split does not
	// compose with, so the knob normalizes away there too.
	if s.IntraPairWorkers <= 1 || s.Fidelity != machine.FidelityExact ||
		s.RateCopies > 0 || s.Topology.Enabled() {
		s.IntraPairWorkers = 0
	}
	return s
}

// FieldError is a scenario that no tier can honor, tied to the knob at
// fault. Field is the knob's campaign-spec JSON name ("fidelity",
// "sampling", "workers_per_pair", "rate_copies", "topology"), so the
// server can return it as the 400's "field" and the CLI gives the same
// message for the same mistake.
type FieldError struct {
	Field string
	Msg   string
}

func (e *FieldError) Error() string { return e.Msg }

// Validate rejects scenarios no tier can honor, returning a *FieldError.
// Negative counts are rejected here, though normalize maps them to
// "off": Characterize validates the normalized scenario, while the
// server and the CLIs validate what the user wrote.
func (s Scenario) Validate() error {
	switch {
	case s.IntraPairWorkers < 0:
		return &FieldError{"workers_per_pair", "workers_per_pair must be non-negative"}
	case s.RateCopies < 0:
		return &FieldError{"rate_copies", "rate_copies must be non-negative"}
	case s.RateCopies > MaxRateCopies:
		return &FieldError{"rate_copies", fmt.Sprintf("rate_copies %d exceeds the maximum of %d", s.RateCopies, MaxRateCopies)}
	}
	n := s.normalize()
	if n.Fidelity == machine.FidelityAnalytic && n.Sampling.Enabled() {
		return &FieldError{"fidelity", "the analytic fidelity tier does not compose with sampling"}
	}
	if n.RateCopies > 0 || n.Topology.Enabled() {
		// Sampling skips stream regions and the analytic tier skips the
		// simulation entirely; neither can carry shared-level
		// interleaving, so contention scenarios are exact-tier only.
		if n.Fidelity != machine.FidelityExact {
			field := "fidelity"
			if s.Fidelity == machine.FidelityExact {
				field = "sampling"
			}
			return &FieldError{field, fmt.Sprintf("rate and topology scenarios run at exact fidelity only (got %s)", n.Fidelity)}
		}
		if err := n.Topology.Validate(); err != nil {
			return &FieldError{"topology", err.Error()}
		}
	}
	return nil
}

// ParseScenario parses the -scenario flag syntax shared by the cmd
// tools: comma-separated tokens, each either a bare fidelity tier
// ("exact", "sampled", "analytic") or a key=value knob
// ("fidelity=sampled", "sampling=262144/8192/8192", "j-pair=8",
// "rate=4", "topo=4P4E-random"). The empty string is the default
// (exact, single-copy, homogeneous) scenario. The result is validated
// but not normalized; the canonical String() of any accepted scenario
// parses back to the same normalized value.
func ParseScenario(s string) (Scenario, error) {
	var sc Scenario
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, _ := strings.Cut(tok, "=")
		var err error
		switch strings.ToLower(key) {
		case "exact", "sampled", "analytic":
			if val != "" {
				return Scenario{}, fmt.Errorf("scenario: tier token %q takes no value", tok)
			}
			sc.Fidelity, err = machine.ParseFidelity(key)
		case "fidelity":
			sc.Fidelity, err = machine.ParseFidelity(val)
		case "sampling":
			sc.Sampling, err = machine.ParseSampling(val)
		case "j-pair", "jpair":
			sc.IntraPairWorkers, err = strconv.Atoi(val)
		case "rate":
			sc.RateCopies, err = strconv.Atoi(val)
		case "topo", "topology":
			sc.Topology, err = machine.ParseTopology(val)
		default:
			return Scenario{}, fmt.Errorf("scenario: unknown knob %q (want a fidelity tier, sampling=, j-pair=, rate= or topo=)", key)
		}
		if err != nil {
			return Scenario{}, fmt.Errorf("scenario: %q: %v", tok, err)
		}
	}
	return sc, sc.Validate()
}

// String renders the scenario in the comma-separated token form
// ParseScenario accepts: "exact" for the zero
// value, otherwise only the knobs that differ from it, e.g.
// "sampled,j-pair=8" or "rate=4,topo=4P4E-random". The string is a
// human/CLI surface, not a cache key — keys are derived from the
// normalized scenario fields.
func (s Scenario) String() string {
	var tok []string
	switch {
	case s.Sampling.Enabled() && s.Sampling != machine.DefaultSampling():
		tok = append(tok, "sampling="+s.Sampling.String())
	case s.Fidelity != machine.FidelityExact || s.Sampling.Enabled():
		tok = append(tok, machine.FidelitySampled.String())
	}
	if s.Fidelity == machine.FidelityAnalytic {
		tok = tok[:0]
		tok = append(tok, machine.FidelityAnalytic.String())
	}
	if s.IntraPairWorkers > 1 {
		tok = append(tok, fmt.Sprintf("j-pair=%d", s.IntraPairWorkers))
	}
	if s.RateCopies > 1 {
		tok = append(tok, fmt.Sprintf("rate=%d", s.RateCopies))
	}
	if s.Topology.Enabled() {
		tok = append(tok, "topo="+s.Topology.String())
	}
	if len(tok) == 0 {
		return machine.FidelityExact.String()
	}
	return strings.Join(tok, ",")
}

// RateStats is the contention accounting of a rate-mode run: the
// shared-level view RunShared measures, carried on Characteristics so
// scaling curves (MPKI and aggregate throughput versus copies) can be
// read straight off campaign results.
type RateStats struct {
	// Copies is the number of co-running workload copies.
	Copies int
	// AggregateIPC is total instructions over the slowest copy's cycles.
	AggregateIPC float64
	// SharedL3MPKI is shared-L3 demand misses per thousand instructions
	// summed over all copies — the contention scaling-curve metric.
	SharedL3MPKI float64
	// BackInvalidations counts private-cache lines invalidated by
	// inclusive shared-L3 evictions over the measured window.
	BackInvalidations uint64
	// PerCopyIPC holds each copy's individual IPC, in copy order.
	PerCopyIPC []float64
}

// RuntimeMode is one branch of a placement runtime distribution: the
// workload landed on one core class with some probability and ran at
// that class's speed.
type RuntimeMode struct {
	// Class is the core class, "P" or "E".
	Class string
	// Weight is the branch probability; weights sum to 1.
	Weight float64
	// ExecSeconds is the modeled full-run time on this class.
	ExecSeconds float64
	// IPC is the modeled per-copy IPC on this class.
	IPC float64
}

// RuntimeDist is the runtime distribution a heterogeneous topology
// induces: under an unaware (random) scheduler the same binary has one
// runtime mode per core class — the multimodal-runtime effect — while
// pinned and aware policies collapse it to a single mode.
type RuntimeDist struct {
	// Topology is the canonical topology string ("4P4E-random").
	Topology string
	// Modes holds the distribution branches in deterministic (P before
	// E) order.
	Modes []RuntimeMode
}

// modeRun is one simulated branch of a scenario: a core class's config,
// its shared-L3 result, and the metrics derived from it.
type modeRun struct {
	mode     machine.Mode
	cfg      machine.Config
	res      *machine.SharedResult
	counters *perf.Counters
	ipc      float64
	execSec  float64
}

// characterizeScenario handles the rate-mode and topology dispatch of
// characterizePairCtx: it runs RateCopies copies of the pair's workload
// on the shared-L3 interleaved kernel (machine.RunShared), once per
// placement mode of the topology, and folds the per-mode results into
// one Characteristics — headline scalars as the placement-weighted
// mixture, Counters/Breakdown from the dominant mode, plus the Rate and
// Runtime extensions.
func characterizeScenario(ctx context.Context, pair profile.Pair, opt Options) (*Characteristics, error) {
	m := pair.Model
	copies := opt.RateCopies
	if copies < 1 {
		copies = 1
	}
	topo := opt.Topology
	modes := []machine.Mode{{Class: "P", Weight: 1}}
	if topo.Enabled() {
		modes = topo.Modes()
	}
	runs := make([]modeRun, 0, len(modes))
	for _, mode := range modes {
		cfg := opt.Machine
		if topo.Enabled() {
			cfg = topo.ClassConfig(opt.Machine, mode.Class)
		}
		// Rate copies each run the whole problem, so unlike threads the
		// footprint is not divided.
		res, err := runCopies(ctx, cfg, m, copies, opt)
		if err != nil {
			return nil, err
		}
		counters := sumCounters(res)
		if opt.MultiplexSlots > 0 {
			counters = perf.Multiplex(counters, opt.MultiplexSlots, m.Seed)
		}
		// The per-copy IPC (not the summed-counter aggregate) is the
		// mode's rate metric: copies are statistically identical, so the
		// average is a variance reduction, matching CharacterizeThreaded.
		ipc := 0.0
		for _, pc := range res.PerCore {
			ipc += pc.IPC / float64(copies)
		}
		runs = append(runs, modeRun{
			mode:     mode,
			cfg:      cfg,
			res:      res,
			counters: counters,
			ipc:      ipc,
			execSec:  execSeconds(m.InstrBillions, ipc, cfg.ClockHz, m.Threads),
		})
	}
	// Aware schedulers collapse the distribution: only the winning class
	// survives, with its weight renormalized to certainty. Which class
	// wins is a measured outcome (usually P for best, E for worst, but
	// the model decides), so selection happens after simulation.
	if topo.Enabled() && (topo.Placement == machine.PlaceBest || topo.Placement == machine.PlaceWorst) {
		win := 0
		for i := 1; i < len(runs); i++ {
			better := runs[i].execSec < runs[win].execSec
			if topo.Placement == machine.PlaceWorst {
				better = runs[i].execSec > runs[win].execSec
			}
			if better {
				win = i
			}
		}
		runs = runs[win : win+1]
		runs[0].mode.Weight = 1
	}
	// The dominant mode (highest weight, P-first tie-break from mode
	// order) lends the result its raw Counters and Breakdown; scalar
	// headline metrics are the weighted mixture across modes.
	dom := 0
	for i := 1; i < len(runs); i++ {
		if runs[i].mode.Weight > runs[dom].mode.Weight {
			dom = i
		}
	}
	c := &Characteristics{
		Pair:          pair,
		InstrBillions: m.InstrBillions,
		RSSMiB:        m.RSSMiB,
		VSZMiB:        m.VSZMiB,
		Counters:      runs[dom].counters,
	}
	for _, r := range runs {
		w := r.mode.Weight
		c.IPC += w * r.ipc
		c.ExecSeconds += w * r.execSec
		c.LoadPct += w * r.counters.LoadPct()
		c.StorePct += w * r.counters.StorePct()
		c.BranchPct += w * r.counters.BranchPct()
		c.MispredictPct += w * r.counters.MispredictPct()
		c.L1MissPct += w * r.counters.CacheMissPct(1)
		c.L2MissPct += w * r.counters.CacheMissPct(2)
		c.L3MissPct += w * r.counters.CacheMissPct(3)
		branches := float64(r.counters.MustValue(perf.AllBranches))
		if branches > 0 {
			pct := func(name string) float64 {
				return 100 * w * float64(r.counters.MustValue(name)) / branches
			}
			c.CondPct += pct(perf.CondBranches)
			c.JumpPct += pct(perf.DirectJumps)
			c.CallPct += pct(perf.DirectCalls)
			c.IndirectPct += pct(perf.IndirectJumps)
			c.ReturnPct += pct(perf.Returns)
		}
	}
	for _, pc := range runs[dom].res.PerCore {
		c.Breakdown.Base += pc.Breakdown.Base
		c.Breakdown.Mispredict += pc.Breakdown.Mispredict
		c.Breakdown.L2 += pc.Breakdown.L2
		c.Breakdown.L3 += pc.Breakdown.L3
		c.Breakdown.Memory += pc.Breakdown.Memory
		c.Breakdown.Fetch += pc.Breakdown.Fetch
		c.Breakdown.TLB += pc.Breakdown.TLB
		c.Calibrated = c.Calibrated || pc.Calibrated
	}
	if opt.RateCopies > 0 {
		res := runs[dom].res
		rate := &RateStats{
			Copies:            copies,
			AggregateIPC:      res.AggregateIPC,
			SharedL3MPKI:      res.SharedL3MPKI,
			BackInvalidations: res.BackInvalidations,
			PerCopyIPC:        make([]float64, len(res.PerCore)),
		}
		for i, pc := range res.PerCore {
			rate.PerCopyIPC[i] = pc.IPC
		}
		c.Rate = rate
	}
	if topo.Enabled() {
		dist := &RuntimeDist{Topology: topo.String()}
		for _, r := range runs {
			dist.Modes = append(dist.Modes, RuntimeMode{
				Class:       r.mode.Class,
				Weight:      r.mode.Weight,
				ExecSeconds: r.execSec,
				IPC:         r.ipc,
			})
		}
		c.Runtime = dist
	}
	return c, nil
}
