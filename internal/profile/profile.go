// Package profile defines the statistical workload model that stands in
// for the proprietary SPEC CPU2017 and CPU2006 binaries (see DESIGN.md,
// "Substitutions").
//
// A Profile captures, per application, the microarchitecture-independent
// characteristics the paper reports (instruction mix, branch population,
// memory reuse profile, footprint) plus the published performance targets
// used to calibrate the pipeline model (IPC, miss rates, mispredict rate).
// The synth package turns a Profile into a dynamic uop stream; the machine
// package measures that stream on the simulated hardware.
//
// Values for characteristics the paper prints per-application are taken
// from the paper; the remainder are interpolated so that the per-suite
// aggregates match the paper's tables (II–VII). The calibration tests in
// this package assert those aggregates.
package profile

import (
	"fmt"
	"sort"
	"strings"
)

// Suite identifies one of the four CPU2017 mini-suites (or the two CPU2006
// groupings used for comparison).
type Suite int

const (
	// RateInt is SPECrate 2017 Integer.
	RateInt Suite = iota
	// RateFP is SPECrate 2017 Floating Point.
	RateFP
	// SpeedInt is SPECspeed 2017 Integer.
	SpeedInt
	// SpeedFP is SPECspeed 2017 Floating Point.
	SpeedFP
	// CPU06Int groups the CPU2006 integer applications.
	CPU06Int
	// CPU06FP groups the CPU2006 floating-point applications.
	CPU06FP
	numSuites
)

// String returns the mini-suite name used in the paper.
func (s Suite) String() string {
	switch s {
	case RateInt:
		return "rate int"
	case RateFP:
		return "rate fp"
	case SpeedInt:
		return "speed int"
	case SpeedFP:
		return "speed fp"
	case CPU06Int:
		return "cpu06 int"
	case CPU06FP:
		return "cpu06 fp"
	default:
		return fmt.Sprintf("Suite(%d)", int(s))
	}
}

// IsInt reports whether the suite contains integer applications.
func (s Suite) IsInt() bool { return s == RateInt || s == SpeedInt || s == CPU06Int }

// IsCPU17 reports whether the suite belongs to CPU2017.
func (s Suite) IsCPU17() bool { return s <= SpeedFP }

// InputSize is one of the three SPEC input data sizes.
type InputSize int

const (
	// Test is the smallest input set.
	Test InputSize = iota
	// Train is the intermediate (feedback-training) input set.
	Train
	// Ref is the full reference input set the paper's Section IV uses.
	Ref
	numInputSizes
)

// NumInputSizes is the number of input sizes.
const NumInputSizes = int(numInputSizes)

// String returns "test", "train" or "ref".
func (s InputSize) String() string {
	switch s {
	case Test:
		return "test"
	case Train:
		return "train"
	case Ref:
		return "ref"
	default:
		return fmt.Sprintf("InputSize(%d)", int(s))
	}
}

// BranchMix describes the static branch-site population as fractions of
// all branch instructions. Fractions must sum to 1; Calls and Returns
// should match so the return-address stack stays balanced.
type BranchMix struct {
	Cond, Jump, Call, IndirectJump, Return float64
}

// Sum returns the total of all fractions.
func (b BranchMix) Sum() float64 {
	return b.Cond + b.Jump + b.Call + b.IndirectJump + b.Return
}

// DefaultIntBranchMix is a call-heavy mix typical of the integer codes.
func DefaultIntBranchMix() BranchMix {
	return BranchMix{Cond: 0.76, Jump: 0.07, Call: 0.07, IndirectJump: 0.03, Return: 0.07}
}

// DefaultFPBranchMix is the loop-dominated mix typical of the FP codes.
func DefaultFPBranchMix() BranchMix {
	return BranchMix{Cond: 0.88, Jump: 0.04, Call: 0.035, IndirectJump: 0.01, Return: 0.035}
}

// Profile is the statistical model of one application at the ref input
// size. Percentages follow the paper's conventions: LoadPct/StorePct are
// percentages of retired uops, BranchPct is a percentage of retired
// instructions, cache miss percentages are per-level local load miss
// rates, MispredictPct is mispredicts per executed branch.
type Profile struct {
	// Name is the SPEC application name, e.g. "505.mcf_r".
	Name string
	// Suite is the mini-suite the application belongs to.
	Suite Suite

	// InstrBillions is the nominal retired instruction count of one ref
	// run, in billions (Table II scale).
	InstrBillions float64
	// TargetIPC is the published (or interpolated) IPC used to calibrate
	// the pipeline model's ILP parameter.
	TargetIPC float64

	// LoadPct and StorePct are memory uops as a percentage of all uops.
	LoadPct, StorePct float64
	// BranchPct is branch instructions as a percentage of instructions.
	BranchPct float64
	// Mix is the branch-class breakdown.
	Mix BranchMix
	// MispredictPct is the target branch mispredict rate in percent.
	MispredictPct float64

	// L1MissPct, L2MissPct, L3MissPct are per-level local load miss
	// rates in percent (L2MissPct = L2 misses / L2 accesses).
	L1MissPct, L2MissPct, L3MissPct float64

	// RSSMiB and VSZMiB are the peak resident and virtual set sizes of a
	// ref run, in MiB.
	RSSMiB, VSZMiB float64

	// MLP is the workload's memory-level parallelism (overlapping DRAM
	// misses); it divides exposed DRAM latency in the pipeline model.
	MLP float64
	// CodeKiB is the instruction footprint driving L1I behaviour.
	CodeKiB float64
	// BranchSites is the static conditional-branch site population.
	BranchSites int
	// Threads is the OpenMP thread count (1 for all rate and most speed
	// applications; 4 for speed-fp and 657.xz_s as configured in the
	// paper).
	Threads int

	// RefInputs names the distinct ref workloads ("in1", "in2", ...);
	// empty means a single unnamed input. TestInputs and TrainInputs
	// likewise (the paper reports 69/61/64 distinct pairs for
	// test/train/ref).
	RefInputs, TestInputs, TrainInputs []string
	// InputSpread scales the deterministic per-input perturbation of the
	// model parameters (0 = identical inputs, 1 = default ±8 %).
	InputSpread float64
}

// Validate reports structural problems with the profile.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("profile: empty name")
	}
	if p.InstrBillions <= 0 {
		return fmt.Errorf("profile %s: non-positive instruction count", p.Name)
	}
	if p.TargetIPC <= 0 {
		return fmt.Errorf("profile %s: non-positive target IPC", p.Name)
	}
	if p.LoadPct < 0 || p.StorePct < 0 || p.LoadPct+p.StorePct > 100 {
		return fmt.Errorf("profile %s: bad memory mix %.1f/%.1f", p.Name, p.LoadPct, p.StorePct)
	}
	if p.BranchPct < 0 || p.BranchPct > 60 {
		return fmt.Errorf("profile %s: implausible branch pct %.1f", p.Name, p.BranchPct)
	}
	if s := p.Mix.Sum(); s < 0.999 || s > 1.001 {
		return fmt.Errorf("profile %s: branch mix sums to %.4f", p.Name, s)
	}
	for _, m := range []float64{p.MispredictPct, p.L1MissPct, p.L2MissPct, p.L3MissPct} {
		if m < 0 || m > 100 {
			return fmt.Errorf("profile %s: rate out of [0,100]: %.2f", p.Name, m)
		}
	}
	if p.RSSMiB <= 0 || p.VSZMiB < p.RSSMiB {
		return fmt.Errorf("profile %s: bad footprint rss=%.2f vsz=%.2f", p.Name, p.RSSMiB, p.VSZMiB)
	}
	if p.MLP < 1 {
		return fmt.Errorf("profile %s: MLP %.2f < 1", p.Name, p.MLP)
	}
	if p.CodeKiB <= 0 || p.BranchSites <= 0 {
		return fmt.Errorf("profile %s: missing code model", p.Name)
	}
	if p.Threads < 1 {
		return fmt.Errorf("profile %s: threads %d", p.Name, p.Threads)
	}
	return nil
}

// Inputs returns the input names for the given size, defaulting to a
// single unnamed input.
func (p *Profile) Inputs(size InputSize) []string {
	var in []string
	switch size {
	case Test:
		in = p.TestInputs
	case Train:
		in = p.TrainInputs
	case Ref:
		in = p.RefInputs
	}
	if len(in) == 0 {
		return []string{""}
	}
	return in
}

// sizeScale holds the per-size scaling of nominal totals relative to ref.
// The instruction scale is derived from the paper's Table II per-suite
// averages; footprint scales are approximations (the paper reports
// footprints for ref only).
type sizeScale struct {
	instr, footprint float64
}

var sizeScales = map[Suite]map[InputSize]sizeScale{
	RateInt: {
		Test:  {instr: 76.922 / 1751.516, footprint: 0.12},
		Train: {instr: 230.553 / 1751.516, footprint: 0.35},
		Ref:   {instr: 1, footprint: 1},
	},
	RateFP: {
		Test:  {instr: 47.431 / 2291.092, footprint: 0.12},
		Train: {instr: 357.233 / 2291.092, footprint: 0.35},
		Ref:   {instr: 1, footprint: 1},
	},
	SpeedInt: {
		Test:  {instr: 77.078 / 2265.182, footprint: 0.12},
		Train: {instr: 232.961 / 2265.182, footprint: 0.35},
		Ref:   {instr: 1, footprint: 1},
	},
	SpeedFP: {
		Test:  {instr: 58.825 / 21880.115, footprint: 0.10},
		Train: {instr: 477.316 / 21880.115, footprint: 0.30},
		Ref:   {instr: 1, footprint: 1},
	},
	CPU06Int: {
		Test:  {instr: 0.04, footprint: 0.12},
		Train: {instr: 0.15, footprint: 0.35},
		Ref:   {instr: 1, footprint: 1},
	},
	CPU06FP: {
		Test:  {instr: 0.04, footprint: 0.12},
		Train: {instr: 0.15, footprint: 0.35},
		Ref:   {instr: 1, footprint: 1},
	},
}

// Pair is one concrete application-input pair at one input size: the unit
// of the paper's characterization (194 of them for CPU2017).
type Pair struct {
	// App is the underlying application profile.
	App *Profile
	// Size is the input data size.
	Size InputSize
	// Input is the input name ("" when the app has a single input).
	Input string

	// Model is the per-pair effective model: the application profile
	// perturbed deterministically for this input and scaled for this
	// size.
	Model Model
}

// Name returns the pair's display name, e.g. "502.gcc_r-in3" or
// "505.mcf_r".
func (p *Pair) Name() string {
	if p.Input == "" {
		return p.App.Name
	}
	return p.App.Name + "-" + p.Input
}

// Model is the fully resolved per-pair workload model handed to the
// generator and the reporting layer.
type Model struct {
	InstrBillions                   float64
	TargetIPC                       float64
	LoadPct, StorePct               float64
	BranchPct                       float64
	Mix                             BranchMix
	MispredictPct                   float64
	L1MissPct, L2MissPct, L3MissPct float64
	RSSMiB, VSZMiB                  float64
	MLP                             float64
	CodeKiB                         float64
	BranchSites                     int
	Threads                         int
	// Seed is the deterministic per-pair generator seed.
	Seed uint64
}

// fnv1a hashes a string for deterministic per-pair seeds.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// perturb returns v scaled by a deterministic factor in
// [1-spread*0.08, 1+spread*0.08] derived from the seed and salt.
func perturb(v float64, seed uint64, salt uint64, spread float64) float64 {
	if spread == 0 {
		return v
	}
	h := (seed ^ salt) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	u := float64(h%10000)/10000 - 0.5 // [-0.5, 0.5)
	return v * (1 + u*0.16*spread)
}

func clampPct(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 100 {
		return 100
	}
	return v
}

// Expand resolves the profile into its concrete pairs for one input size.
func (p *Profile) Expand(size InputSize) []Pair {
	scale := sizeScales[p.Suite][size]
	inputs := p.Inputs(size)
	pairs := make([]Pair, 0, len(inputs))
	for _, in := range inputs {
		seed := fnv1a(p.Name + "/" + size.String() + "/" + in)
		spread := p.InputSpread
		if in == "" {
			spread = 0
		}
		m := Model{
			InstrBillions: perturb(p.InstrBillions*scale.instr, seed, 1, spread*2),
			TargetIPC:     perturb(p.TargetIPC, seed, 2, spread*0.5),
			LoadPct:       clampPct(perturb(p.LoadPct, seed, 3, spread)),
			StorePct:      clampPct(perturb(p.StorePct, seed, 4, spread)),
			BranchPct:     clampPct(perturb(p.BranchPct, seed, 5, spread)),
			Mix:           p.Mix,
			MispredictPct: clampPct(perturb(p.MispredictPct, seed, 6, spread)),
			L1MissPct:     clampPct(perturb(p.L1MissPct, seed, 7, spread)),
			L2MissPct:     clampPct(perturb(p.L2MissPct, seed, 8, spread)),
			L3MissPct:     clampPct(perturb(p.L3MissPct, seed, 9, spread)),
			RSSMiB:        perturb(p.RSSMiB*scale.footprint, seed, 10, spread),
			VSZMiB:        perturb(p.VSZMiB*scale.footprint, seed, 11, spread),
			MLP:           p.MLP,
			CodeKiB:       p.CodeKiB,
			BranchSites:   p.BranchSites,
			Threads:       p.Threads,
			Seed:          seed,
		}
		// Smaller inputs touch less memory, so miss rates soften a
		// little below ref, mirroring the IPC trends in Table II.
		if size != Ref {
			soft := 0.85
			if size == Test {
				soft = 0.7
			}
			m.L2MissPct *= soft
			m.L3MissPct *= soft
		}
		if m.VSZMiB < m.RSSMiB {
			m.VSZMiB = m.RSSMiB
		}
		pairs = append(pairs, Pair{App: p, Size: size, Input: in, Model: m})
	}
	return pairs
}

// ExpandSuite resolves every profile in apps into pairs for one size,
// sorted by application name.
func ExpandSuite(apps []*Profile, size InputSize) []Pair {
	var pairs []Pair
	for _, a := range apps {
		pairs = append(pairs, a.Expand(size)...)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Name() < pairs[j].Name() })
	return pairs
}

// FilterSuite returns the pairs belonging to the given mini-suite.
func FilterSuite(pairs []Pair, s Suite) []Pair {
	var out []Pair
	for _, p := range pairs {
		if p.App.Suite == s {
			out = append(out, p)
		}
	}
	return out
}

// The parsers below read the workload names every entry point accepts
// (the CLIs' -suite, -mini and -size flags and the campaign and sweep
// specs of specserved): names match in any case, and an empty name
// selects the default.

// ParseSuite returns the models of the named suite: "cpu2017" (or
// "cpu17", the default) or "cpu2006" (or "cpu06").
func ParseSuite(name string) ([]*Profile, error) {
	switch strings.ToLower(name) {
	case "cpu2017", "cpu17", "":
		return CPU2017(), nil
	case "cpu2006", "cpu06":
		return CPU2006(), nil
	}
	return nil, fmt.Errorf("unknown suite %q", name)
}

// miniSuites maps the CPU2017 mini-suite names to their identifiers.
var miniSuites = map[string]Suite{
	"rate-int": RateInt, "rate-fp": RateFP, "speed-int": SpeedInt, "speed-fp": SpeedFP,
}

// FilterMini keeps the apps of the named mini-suite: "all" (the
// default) keeps every app, "rate-int", "rate-fp", "speed-int" and
// "speed-fp" keep one CPU2017 mini-suite, in order.
func FilterMini(apps []*Profile, name string) ([]*Profile, error) {
	lower := strings.ToLower(name)
	if lower == "all" || lower == "" {
		return apps, nil
	}
	want, ok := miniSuites[lower]
	if !ok {
		return nil, fmt.Errorf("unknown mini-suite %q", name)
	}
	var kept []*Profile
	for _, app := range apps {
		if app.Suite == want {
			kept = append(kept, app)
		}
	}
	return kept, nil
}

// ParseSize parses an input size name: "test", "train" or "ref" (the
// default).
func ParseSize(name string) (InputSize, error) {
	if name == "" {
		return Ref, nil
	}
	for s := Test; s < numInputSizes; s++ {
		if strings.EqualFold(name, s.String()) {
			return s, nil
		}
	}
	return Ref, fmt.Errorf("unknown input size %q", name)
}
