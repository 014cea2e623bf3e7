package speckit

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/profile"
)

// Option configures a characterization campaign functionally. Options
// compose left to right over the zero Options value:
//
//	chars, err := speckit.CPU2017().Characterize(speckit.Ref,
//	        speckit.WithInstructions(300000),
//	        speckit.WithCache(speckit.NewCache()),
//	        speckit.WithTrace(tr))
//
// The Options struct remains supported for existing callers; Option is
// the preferred surface for new code because added knobs never break
// composite literals.
type Option func(*Options)

// NewOptions composes opts over the zero Options value. Use it when an
// API takes the struct form (e.g. server.Config.Characterize).
func NewOptions(opts ...Option) Options {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithContext attaches a cancellation context: campaigns abort between
// pairs when ctx is cancelled (Ctrl-C handling in the cmd tools).
func WithContext(ctx context.Context) Option {
	return func(o *Options) { o.Context = ctx }
}

// WithInstructions sets the simulated instruction window per pair.
func WithInstructions(n uint64) Option {
	return func(o *Options) { o.Instructions = n }
}

// WithParallelism bounds concurrent pair simulations (default NumCPU).
func WithParallelism(n int) Option {
	return func(o *Options) { o.Parallelism = n }
}

// WithIntraPairParallelism splits each pair's measured stream into n
// windows simulated concurrently and stitched with the frozen-cache
// warm-state technique — the knob that scales a single large pair past
// one core where WithParallelism maxes out at the number of pairs.
// Results are a tolerance-gated estimate of the sequential run,
// bit-reproducible for a fixed n and keyed separately in every cache
// tier. Exact-tier only: the sampled and analytic tiers normalize the
// knob away. n <= 1 selects the sequential kernel.
func WithIntraPairParallelism(n int) Option {
	return func(o *Options) { o.IntraPairWorkers = n }
}

// WithMachine selects the simulated machine model.
func WithMachine(m MachineConfig) Option {
	return func(o *Options) { o.Machine = m }
}

// WithBatchSize sets the simulation kernel batch size in uops (0 =
// default; results are batch-size independent).
func WithBatchSize(n int) Option {
	return func(o *Options) { o.BatchSize = n }
}

// WithCache attaches a memoizing result cache shared across campaigns.
func WithCache(c *Cache) Option {
	return func(o *Options) { o.Cache = c }
}

// WithStore attaches a persistent content-addressed store as the
// write-through second cache tier.
func WithStore(st *Store) Option {
	return func(o *Options) { o.Store = st }
}

// WithSampling sets the systematic-sampling fidelity knob.
func WithSampling(s Sampling) Option {
	return func(o *Options) { o.Sampling = s }
}

// WithScenario applies a complete measurement scenario — fidelity tier,
// sampling knob, intra-pair parallelism, rate-mode copy count and
// machine topology — in one step, overwriting whatever those five knobs
// were before. It is the composed form of WithFidelity, WithSampling,
// WithIntraPairParallelism, WithRateCopies and WithTopology; prefer it
// when the scenario arrives as one value (a -scenario flag, a campaign
// spec's scenario object).
func WithScenario(s Scenario) Option {
	return func(o *Options) { o.Scenario = s }
}

// WithRateCopies characterizes each pair as a SPECrate-style run: n
// copies of the workload on identical cores with private L1/L2
// contending on one shared inclusive L3, reported with per-copy and
// aggregate throughput plus shared-level contention stats
// (Characteristics.Rate). Keyed separately in every cache tier;
// exact-tier only. n <= 1 selects the ordinary single-copy run.
func WithRateCopies(n int) Option {
	return func(o *Options) { o.RateCopies = n }
}

// WithTopology runs each pair on a heterogeneous P-core/E-core machine
// under the topology's OS-placement policy; non-deterministic policies
// (random) yield a runtime distribution (Characteristics.Runtime)
// instead of a point estimate. Keyed separately in every cache tier;
// exact-tier only; composes with WithRateCopies.
func WithTopology(t Topology) Option {
	return func(o *Options) { o.Topology = t }
}

// WithFidelity selects the simulation tier (exact, sampled, analytic).
func WithFidelity(f Fidelity) Option {
	return func(o *Options) { o.Fidelity = f }
}

// WithProgress registers a campaign progress callback, invoked after
// each completed pair.
func WithProgress(fn func(Progress)) Option {
	return func(o *Options) { o.Progress = fn }
}

// WithTrace records the campaign into tr: a span tree of campaign →
// pair → simulation stages, with cache-tier outcomes, renderable as a
// JSONL run manifest. Tracing never affects cache identity — results
// are bit-identical with and without it.
func WithTrace(tr *Trace) Option {
	return func(o *Options) { o.Trace = tr }
}

// Characterize expands the suite into application-input pairs at the
// given input size and simulates each — the functional-options form of
// the package-level Characterize.
func (s Suite) Characterize(size InputSize, opts ...Option) ([]Characteristics, error) {
	return core.CharacterizeSuites([]*profile.Profile(s), size, NewOptions(opts...))
}

// Trace collects a campaign's span tree — campaign, per-pair, and
// simulation-stage timings plus cache-tier outcomes — for Options.Trace
// / WithTrace. One Trace can record several campaigns; render it with
// WriteManifest once they finish.
type Trace = obs.Trace

// NewTrace returns an empty run trace.
func NewTrace() *Trace { return obs.NewTrace() }

// ManifestHeader is the first line of a JSONL run manifest.
type ManifestHeader = obs.ManifestHeader

// ManifestSpan is one recorded span in a JSONL run manifest.
type ManifestSpan = obs.ManifestSpan

// ReadManifest parses and validates a JSONL run manifest.
func ReadManifest(r io.Reader) (ManifestHeader, []ManifestSpan, error) {
	return obs.ReadManifest(r)
}

// ManifestDigest returns the sha256 hex digest of a rendered manifest —
// the identity under which specserved reports campaign runs.
func ManifestDigest(manifest []byte) string { return obs.ManifestDigest(manifest) }
