// Package speckit reproduces "A Workload Characterization of the SPEC
// CPU2017 Benchmark Suite" (Limaye & Adegbija, ISPASS 2018) as a
// self-contained Go library.
//
// Because the SPEC binaries and the paper's Haswell testbed are not
// redistributable, every layer of the measurement stack is simulated (see
// DESIGN.md): statistical workload models stand in for the benchmarks, a
// calibrated microarchitecture simulator stands in for the hardware
// performance counters, and the analysis pipeline (PCA, hierarchical
// clustering, Pareto subsetting) is implemented from scratch.
//
// The typical flow mirrors the paper:
//
//	chars, err := speckit.Characterize(speckit.CPU2017(), speckit.Ref, speckit.Options{})
//	res, err := speckit.Subset(chars, speckit.SubsetOptions{})
//	fmt.Println(speckit.TableX(res))
package speckit

import (
	"io"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/subset"
)

// InputSize selects the SPEC input data size.
type InputSize = profile.InputSize

// Input sizes, smallest to largest.
const (
	Test  = profile.Test
	Train = profile.Train
	Ref   = profile.Ref
)

// MiniSuite identifies one of the SPEC mini-suites.
type MiniSuite = profile.Suite

// Mini-suite identifiers.
const (
	RateInt  = profile.RateInt
	RateFP   = profile.RateFP
	SpeedInt = profile.SpeedInt
	SpeedFP  = profile.SpeedFP
	CPU06Int = profile.CPU06Int
	CPU06FP  = profile.CPU06FP
)

// Workload is the statistical model of one application; custom workloads
// can be characterized alongside the SPEC models (see
// examples/customworkload).
type Workload = profile.Profile

// Suite is an ordered collection of application workload models.
type Suite []*Workload

// CPU2017 returns models of all 43 SPEC CPU2017 applications.
func CPU2017() Suite { return Suite(profile.CPU2017()) }

// CPU2006 returns models of all 29 SPEC CPU2006 applications (the paper's
// comparison baseline).
func CPU2006() Suite { return Suite(profile.CPU2006()) }

// Mini returns the subset of the suite belonging to the given mini-suite.
func (s Suite) Mini(m MiniSuite) Suite {
	var out Suite
	for _, app := range s {
		if app.Suite == m {
			out = append(out, app)
		}
	}
	return out
}

// Names returns the application names in order.
func (s Suite) Names() []string {
	names := make([]string, len(s))
	for i, app := range s {
		names[i] = app.Name
	}
	return names
}

// Options configure a characterization campaign. Filling the struct
// directly is the legacy surface and remains supported; new code should
// prefer composing Option values (WithInstructions, WithCache, ...) via
// NewOptions or Suite.Characterize, which stay source-compatible as
// knobs are added.
type Options = core.Options

// Cache memoizes characterization results across campaigns. Keys are
// content hashes of (pair identity and model, machine configuration, run
// options), so a hit returns Characteristics bit-identical to what the
// simulation would produce. Safe for concurrent use; share one Cache
// across repeated or overlapping campaigns via Options.Cache.
type Cache = sched.Cache

// CacheStats is a snapshot of cache hit/miss counters, split by the
// tier that satisfied each lookup (in-process memory vs. persistent
// store).
type CacheStats = sched.CacheStats

// Store is a persistent, content-addressed result store: a directory of
// checksummed JSON records keyed by the same content hashes as the
// in-memory Cache. Set Options.Store to attach it as a write-through
// second cache tier; results then survive the process and are re-used
// bit-identically by later runs — including other processes sharing the
// directory. Corrupt or truncated records are treated as misses and
// recomputed, never surfaced as errors.
type Store = store.Store

// StoreStats is a snapshot of persistent-store operation counters.
type StoreStats = store.Stats

// OpenStore creates (if needed) and opens the persistent result store
// rooted at dir, for Options.Store.
func OpenStore(dir string) (*Store, error) { return store.Open(dir) }

// Progress is a campaign progress snapshot delivered to
// Options.Progress after each completed pair.
type Progress = sched.Progress

// NewCache returns an empty result cache for Options.Cache.
func NewCache() *Cache { return sched.NewCache() }

// ProgressPrinter returns a Progress callback that renders a one-line
// in-place progress meter to w (typically os.Stderr); the cmd tools wire
// it to their -progress flag.
func ProgressPrinter(w io.Writer) func(Progress) { return sched.ProgressPrinter(w) }

// Sampling is the systematic-sampling fidelity knob for
// Options.Sampling: simulate only periodic detailed windows of each
// pair's stream and extrapolate the counters, trading a bounded,
// estimated metric error for a multi-x campaign speedup. The zero value
// disables sampling (exact simulation).
type Sampling = machine.Sampling

// SamplingStats describes how a sampled run was measured and its
// estimated per-metric extrapolation error (Characteristics.Sampling).
type SamplingStats = machine.SamplingStats

// DefaultSampling returns the default fidelity knob (see
// machine.DefaultSampling for the tuning rationale).
func DefaultSampling() Sampling { return machine.DefaultSampling() }

// ParseSampling parses the sampling= knob of the -scenario syntax:
// "off" or "" disables sampling, "on" or "default" selects
// DefaultSampling, and "PERIOD/DETAIL/WARMUP" (instruction counts, e.g.
// "32768/4096/8192") sets the knob explicitly.
func ParseSampling(s string) (Sampling, error) { return machine.ParseSampling(s) }

// Fidelity selects the simulation tier for Options.Fidelity: exact
// simulation of every uop, SMARTS-style sampled simulation, or analytic
// miss-curve prediction from a reuse-distance profile (the fastest
// tier; see DESIGN.md). The zero value is FidelityExact.
type Fidelity = machine.Fidelity

// Fidelity tiers, slowest/most faithful first.
const (
	FidelityExact    = machine.FidelityExact
	FidelitySampled  = machine.FidelitySampled
	FidelityAnalytic = machine.FidelityAnalytic
)

// ParseFidelity parses a tier token of the -scenario syntax: "exact"
// (or ""), "sampled", or "analytic".
func ParseFidelity(s string) (Fidelity, error) { return machine.ParseFidelity(s) }

// Scenario bundles every knob that changes what a campaign measures —
// fidelity tier, sampling knob, intra-pair parallelism, rate-mode copy
// count and machine topology — into one typed value with a canonical
// string form. Options embeds it, so Options.Sampling, RateCopies and
// the other knobs are its fields. Build one directly or with
// ParseScenario, then attach it with WithScenario.
type Scenario = core.Scenario

// ParseScenario parses the -scenario flag syntax shared by the cmd
// tools: comma-separated tokens such as "sampled,j-pair=8" or
// "rate=4,topo=4P4E-random". Scenarios no tier can honor are rejected
// with the same message specserved gives for them.
func ParseScenario(s string) (Scenario, error) { return core.ParseScenario(s) }

// Topology describes a heterogeneous machine for Options.Topology /
// Scenario.Topology: P-core and E-core class sizes plus the OS
// placement policy mapping workload copies to classes. The zero value
// means a homogeneous machine.
type Topology = machine.Topology

// Placement is a topology's OS scheduling policy.
type Placement = machine.Placement

// Placement policies.
const (
	PlacePinnedP = machine.PlacePinnedP
	PlacePinnedE = machine.PlacePinnedE
	PlaceRandom  = machine.PlaceRandom
	PlaceBest    = machine.PlaceBest
	PlaceWorst   = machine.PlaceWorst
)

// ParseTopology parses the topo= knob syntax of the -scenario flag:
// "" (or "off") disables topology modelling, otherwise "4P4E-random"
// style (class sizes plus a placement policy).
func ParseTopology(s string) (Topology, error) { return machine.ParseTopology(s) }

// ParsePlacement parses a placement policy name: "pinned-p" (or "" or
// "pinned"), "pinned-e", "random", "best", "worst".
func ParsePlacement(s string) (Placement, error) { return machine.ParsePlacement(s) }

// RateStats is the shared-L3 contention accounting of a rate-mode run
// (Characteristics.Rate, present when Options.RateCopies > 1).
type RateStats = core.RateStats

// RuntimeDist is the placement runtime distribution of a
// heterogeneous-topology run (Characteristics.Runtime); under a random
// (topology-unaware) placement it is multimodal — one mode per core
// class.
type RuntimeDist = core.RuntimeDist

// RuntimeMode is one branch of a RuntimeDist.
type RuntimeMode = core.RuntimeMode

// Characteristics is one application-input pair's characterization.
type Characteristics = core.Characteristics

// Summary is a mean / standard deviation aggregate.
type Summary = core.Summary

// MachineConfig describes the simulated hardware.
type MachineConfig = machine.Config

// Haswell returns the paper's full-size Xeon E5-2650L v3 machine model.
func Haswell() MachineConfig { return machine.Haswell() }

// HaswellScaled returns the characterization scale model (2 MB L3); it is
// the default machine when Options.Machine is zero.
func HaswellScaled() MachineConfig { return machine.HaswellScaled() }

// Characterize expands the suite into application-input pairs at the
// given input size and simulates each, returning per-pair
// characteristics.
func Characterize(s Suite, size InputSize, opt Options) ([]Characteristics, error) {
	return core.CharacterizeSuites([]*profile.Profile(s), size, opt)
}

// CharacterizeAllSizes characterizes the suite at test, train and ref
// sizes, returning the concatenated results (the paper's full 194-pair
// campaign when used with CPU2017()).
func CharacterizeAllSizes(s Suite, opt Options) ([]Characteristics, error) {
	var all []Characteristics
	for _, size := range []InputSize{Test, Train, Ref} {
		chars, err := Characterize(s, size, opt)
		if err != nil {
			return nil, err
		}
		all = append(all, chars...)
	}
	return all, nil
}

// BySuite filters characteristics to one mini-suite.
func BySuite(chars []Characteristics, m MiniSuite) []Characteristics {
	return core.BySuite(chars, m)
}

// Aggregate summarizes a metric across applications (per-application
// means first, the paper's convention).
func Aggregate(chars []Characteristics, pick func(*Characteristics) float64) Summary {
	return core.Aggregate(chars, pick)
}

// SubsetOptions configure the representative-subset methodology.
type SubsetOptions = subset.Options

// SubsetResult is the outcome of the subsetting methodology.
type SubsetResult = subset.Result

// Representative is one selected application-input pair.
type Representative = subset.Representative

// Subset runs the paper's Section V methodology (PCA, hierarchical
// clustering, minimum-time representatives, Pareto-knee cluster count)
// over a characterization run.
func Subset(chars []Characteristics, opt SubsetOptions) (*SubsetResult, error) {
	return subset.Compute(chars, opt)
}
