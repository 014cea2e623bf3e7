// Package core implements the paper's primary contribution: the workload
// characterization pipeline of Sections III-IV. It runs every
// application-input pair's synthetic workload on the simulated machine,
// collects the perf-style counters, and derives the per-pair
// characteristics and per-suite aggregates behind every table and figure.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"

	"repro/internal/analytic"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Options configure a characterization campaign.
type Options struct {
	// Machine is the simulated hardware; the zero value selects the
	// scaled Haswell characterization machine.
	Machine machine.Config
	// Instructions is the measured window per pair (default 300000).
	Instructions uint64
	// Parallelism bounds concurrent pair simulations (default NumCPU).
	Parallelism int
	// Scenario is the measurement scenario: fidelity tier, sampling
	// knob, intra-pair workers, rate-mode copies and topology. Its
	// fields are promoted, so opt.Sampling, opt.RateCopies and the rest
	// read and assign directly.
	Scenario
	// MultiplexSlots, when positive, emulates perf's counter multiplexing
	// with that many hardware counter slots (the paper programs 15
	// events on a 4-slot Haswell PMU): all derived metrics then carry the
	// corresponding scaling noise. Zero reads exact counters.
	MultiplexSlots int
	// Context, when non-nil, cancels the campaign: queued pairs are
	// skipped and in-flight simulations abort at the next cancellation
	// check. Nil means context.Background().
	Context context.Context
	// Cache, when non-nil, memoizes pair results across campaigns keyed
	// by a content hash of (pair identity and model, machine config, run
	// options). A hit skips the simulation and returns the stored
	// Characteristics bit-identical; share one cache across repeated or
	// overlapping campaigns to avoid paying for the same pair twice.
	Cache *sched.Cache
	// Store, when non-nil, is a persistent second cache tier (typically
	// internal/store's content-addressed file store) attached under the
	// result cache: pair results are written through to it as checksummed
	// records and later campaigns — including ones in other processes —
	// are served from it bit-identically. Setting Store without Cache
	// creates a campaign-local memory tier automatically.
	Store sched.Backend
	// Progress, when non-nil, receives a snapshot after each completed
	// pair (pairs done/total, cache hits split by tier, elapsed time).
	// Callbacks are invoked serially.
	Progress func(sched.Progress)
	// BatchSize is the simulation kernel's uop buffer length (0 means
	// machine.DefaultBatchSize). Purely a performance knob: results are
	// bit-identical for every batch size, so it is deliberately excluded
	// from the result-cache key — cached Characteristics stay valid when
	// it changes.
	BatchSize int
	// Trace, when non-nil, records the campaign as a span tree — one
	// campaign root, one span per pair with its satisfying cache tier,
	// and per-stage children (fast-forward/warmup/detail) under
	// simulated pairs — renderable as a JSONL run manifest
	// (obs.Trace.WriteManifest). Like BatchSize, Trace never enters any
	// result-cache key: observing a run must not change what is
	// computed or how it is cached.
	Trace *obs.Trace
}

func (o Options) withDefaults() Options {
	if o.Machine.ClockHz == 0 {
		o.Machine = machine.HaswellScaled()
	}
	if o.Instructions == 0 {
		o.Instructions = 300000
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
	o.Scenario = o.Scenario.normalize()
	return o
}

// Normalized returns the options with the campaign defaults applied —
// exactly the values CampaignKeys folds into every result-cache key.
// specserved's coordinator forwards them verbatim in the sub-campaign
// specs it scatters, so worker-side keys match the coordinator's
// regardless of each worker's own base flags.
func (o Options) Normalized() Options { return o.withDefaults() }

// Characteristics holds one application-input pair's characterization:
// the row unit of every table and figure in the paper.
type Characteristics struct {
	// Pair identifies the application, input size and input.
	Pair profile.Pair

	// InstrBillions is the nominal full-run instruction count.
	InstrBillions float64
	// IPC is the modeled instructions per cycle.
	IPC float64
	// ExecSeconds is the modeled full-run execution time
	// (nominal instructions / (IPC x clock x threads)).
	ExecSeconds float64

	// Instruction mix (measured from the simulated stream).
	LoadPct, StorePct, BranchPct float64
	// Branch class shares as percentages of all branches.
	CondPct, JumpPct, CallPct, IndirectPct, ReturnPct float64
	// MispredictPct is mispredicted branches per executed branch.
	MispredictPct float64
	// Per-level local load miss rates.
	L1MissPct, L2MissPct, L3MissPct float64
	// Footprint (nominal model values; see DESIGN.md).
	RSSMiB, VSZMiB float64

	// Counters is the raw perf snapshot of the sampled window.
	Counters *perf.Counters
	// Breakdown is the CPI stack of the sampled window.
	Breakdown pipeline.Breakdown
	// Calibrated reports whether the IPC target was reachable.
	Calibrated bool
	// Sampling carries the systematic-sampling knob and per-metric
	// extrapolation-error estimates when the pair was characterized with
	// Options.Sampling; nil for exact runs.
	Sampling *machine.SamplingStats
	// Rate carries the contention accounting of a rate-mode run
	// (Options.RateCopies); nil for single-copy runs. Tagged omitempty
	// so single-copy results keep their pre-rate serialized bytes.
	Rate *RateStats `json:",omitempty"`
	// Runtime carries the placement runtime distribution of a
	// heterogeneous-topology run (Options.Topology); nil otherwise.
	Runtime *RuntimeDist `json:",omitempty"`
}

// MemPct returns loads+stores as a percentage of uops.
func (c *Characteristics) MemPct() float64 { return c.LoadPct + c.StorePct }

// Characterize simulates every pair and returns their characteristics in
// pair order. Pairs run on a bounded worker pool (Options.Parallelism
// workers, not one goroutine per pair); the first simulation error
// cancels queued and in-flight pairs and aborts the campaign, and a
// cancelled Options.Context does the same. With Options.Cache set,
// previously simulated (pair, machine, options) combinations are served
// from the cache bit-identically instead of being re-simulated.
func Characterize(pairs []profile.Pair, opt Options) ([]Characteristics, error) {
	opt = opt.withDefaults()
	if err := opt.Scenario.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if opt.Store != nil {
		if opt.Cache == nil {
			opt.Cache = sched.NewCache()
		}
		opt.Cache.SetBackend(opt.Store, CharacteristicsCodec{})
	}
	prefix := ""
	if opt.Cache != nil {
		prefix = campaignKeyPrefix(&opt)
	}
	tasks := make([]sched.Task[Characteristics], len(pairs))
	for i := range pairs {
		pair := pairs[i]
		t := sched.Task[Characteristics]{Name: pair.Name()}
		if opt.Cache != nil {
			t.Key = pairKey(prefix, &pair)
		}
		t.Run = func(ctx context.Context) (Characteristics, error) {
			c, err := runPair(ctx, pair, opt)
			if err != nil {
				return Characteristics{}, err
			}
			return *c, nil
		}
		tasks[i] = t
	}
	span := opt.Trace.Start("campaign").
		SetAttr("pairs", len(pairs)).
		SetAttr("machine", opt.Machine.Name).
		SetAttr("instructions", opt.Instructions).
		SetAttr("sampling", opt.Sampling.String()).
		SetAttr("fidelity", opt.Fidelity.String())
	defer span.Finish()
	return sched.Run(opt.Context, tasks, sched.Options{
		Workers:  opt.Parallelism,
		Cache:    opt.Cache,
		Progress: opt.Progress,
		Span:     span,
	})
}

// runPair is the campaign's per-pair entry point; tests swap it to
// observe scheduling behaviour without paying for real simulations.
var runPair = characterizePairCtx

// CharacterizePair simulates a single application-input pair.
func CharacterizePair(pair profile.Pair, opt Options) (*Characteristics, error) {
	return characterizePairCtx(context.Background(), pair, opt)
}

func characterizePairCtx(ctx context.Context, pair profile.Pair, opt Options) (*Characteristics, error) {
	opt = opt.withDefaults()
	if err := opt.Scenario.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if opt.RateCopies > 0 || opt.Topology.Enabled() {
		// Multi-copy contention and heterogeneous-topology scenarios run
		// on the shared-L3 interleaved kernel and derive their own
		// Characteristics shape (per-mode aggregation, distributions).
		return characterizeScenario(ctx, pair, opt)
	}
	m := pair.Model
	gen, err := synth.New(m, opt.Machine.Geometry())
	if err != nil {
		return nil, err
	}
	mopt := machine.Options{
		Instructions:       opt.Instructions,
		WarmupInstructions: gen.Prologue(),
		Workload:           pipeline.Workload{ILP: 2, MLP: m.MLP},
		CalibrateIPC:       m.TargetIPC,
		Context:            ctx,
		BatchSize:          opt.BatchSize,
		Sampling:           opt.Sampling,
		Span:               obs.SpanFromContext(ctx),
	}
	if opt.Sampling.Enabled() {
		// Under sampling the fractional pre-measurement warmup would
		// simulate a quarter of the stream in full and cap the speedup
		// near 2x; the sampled loop's own settle period plus per-window
		// re-warms replace it (see machine.Sampling), so only the
		// generator prologue stays mandatory.
		mopt.WarmupFraction = -1
	}
	var res *machine.Result
	switch {
	case opt.Fidelity == machine.FidelityAnalytic:
		res, err = analytic.Run(opt.Machine, gen, mopt)
	case opt.IntraPairWorkers > 1:
		// Every window needs an independently positioned copy of the
		// stream, so the kernel gets the factory, not gen.
		res, err = machine.RunParallel(opt.Machine, func() (trace.Source, error) {
			return synth.New(m, opt.Machine.Geometry())
		}, mopt, opt.IntraPairWorkers)
	default:
		res, err = machine.Run(opt.Machine, gen, mopt)
	}
	if err != nil {
		return nil, err
	}
	counters := res.Counters
	if opt.MultiplexSlots > 0 {
		counters = perf.Multiplex(counters, opt.MultiplexSlots, m.Seed)
	}
	c := &Characteristics{
		Pair:          pair,
		InstrBillions: m.InstrBillions,
		IPC:           counters.IPC(),
		LoadPct:       counters.LoadPct(),
		StorePct:      counters.StorePct(),
		BranchPct:     counters.BranchPct(),
		MispredictPct: counters.MispredictPct(),
		L1MissPct:     counters.CacheMissPct(1),
		L2MissPct:     counters.CacheMissPct(2),
		L3MissPct:     counters.CacheMissPct(3),
		RSSMiB:        m.RSSMiB,
		VSZMiB:        m.VSZMiB,
		Counters:      counters,
		Breakdown:     res.Breakdown,
		Calibrated:    res.Calibrated,
		Sampling:      res.Sampling,
	}
	branches := float64(counters.MustValue(perf.AllBranches))
	if branches > 0 {
		pct := func(name string) float64 {
			return 100 * float64(counters.MustValue(name)) / branches
		}
		c.CondPct = pct(perf.CondBranches)
		c.JumpPct = pct(perf.DirectJumps)
		c.CallPct = pct(perf.DirectCalls)
		c.IndirectPct = pct(perf.IndirectJumps)
		c.ReturnPct = pct(perf.Returns)
	}
	c.ExecSeconds = execSeconds(m.InstrBillions, c.IPC, opt.Machine.ClockHz, m.Threads)
	return c, nil
}

// execSeconds models the full-run execution time. A degenerate rate
// (IPC 0, as multiplex noise can produce on uncalibrated runs) yields 0
// rather than +Inf/NaN so downstream tables and subset costs stay finite.
func execSeconds(instrBillions, ipc, clockHz float64, threads int) float64 {
	denom := ipc * clockHz * float64(threads)
	if denom <= 0 || math.IsNaN(denom) || math.IsInf(denom, 0) {
		return 0
	}
	return instrBillions * 1e9 / denom
}

// CharacterizeSuites expands and characterizes a full application list at
// one input size.
func CharacterizeSuites(apps []*profile.Profile, size profile.InputSize, opt Options) ([]Characteristics, error) {
	return Characterize(profile.ExpandSuite(apps, size), opt)
}

// Filter returns the characteristics whose pair satisfies keep.
func Filter(chars []Characteristics, keep func(*Characteristics) bool) []Characteristics {
	var out []Characteristics
	for i := range chars {
		if keep(&chars[i]) {
			out = append(out, chars[i])
		}
	}
	return out
}

// BySuite returns the characteristics belonging to one mini-suite.
func BySuite(chars []Characteristics, s profile.Suite) []Characteristics {
	return Filter(chars, func(c *Characteristics) bool { return c.Pair.App.Suite == s })
}

// Summary is a mean and sample standard deviation, the aggregate form of
// the paper's comparison tables.
type Summary struct {
	Mean, Std float64
	N         int
}

// PerAppMeans averages a metric over each application's inputs first
// (the paper's convention for multi-input applications), returning one
// value per application sorted by name.
func PerAppMeans(chars []Characteristics, pick func(*Characteristics) float64) []float64 {
	byApp := map[string][]float64{}
	for i := range chars {
		name := chars[i].Pair.App.Name
		byApp[name] = append(byApp[name], pick(&chars[i]))
	}
	names := make([]string, 0, len(byApp))
	for n := range byApp {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]float64, 0, len(names))
	for _, n := range names {
		vals := byApp[n]
		s := 0.0
		for _, v := range vals {
			s += v
		}
		out = append(out, s/float64(len(vals)))
	}
	return out
}

// Aggregate summarizes a metric across applications (per-app means, then
// mean and standard deviation across applications).
func Aggregate(chars []Characteristics, pick func(*Characteristics) float64) Summary {
	vals := PerAppMeans(chars, pick)
	n := len(vals)
	if n == 0 {
		return Summary{}
	}
	mean := 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= float64(n)
	ss := 0.0
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	std := 0.0
	if n > 1 {
		std = math.Sqrt(ss / float64(n-1))
	}
	return Summary{Mean: mean, Std: std, N: n}
}
