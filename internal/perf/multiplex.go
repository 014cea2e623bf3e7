package perf

import (
	"math"

	"repro/internal/xrand"
)

// Multiplex emulates Linux perf's counter multiplexing: the paper
// programs 15 events onto a PMU with far fewer hardware slots, so perf
// time-slices the events and scales each count by observed/enabled time.
// Scaling is unbiased but noisy; this function applies the corresponding
// deterministic relative error so analyses can be tested for robustness
// to the paper's measurement methodology.
//
// Events are scheduled into PMU groups of `slots` events (in sorted name
// order, the way perf fills its counter rotation), and every event in a
// group shares one scaling factor — grouped events are enabled and
// disabled together, so their observed/enabled ratios are identical.
// Because related events can still land in different groups, the branch
// subtype counts are renormalized afterwards against the scaled
// all-branches total (see renormalizeBranches); without that, the class
// shares derived in core.CharacterizePair could sum past 100%.
//
// slots is the number of simultaneously programmable counters (4 general
// purpose counters on Haswell per thread with hyperthreading enabled);
// seed fixes the noise realization. Counts, footprints and time are
// returned in a new snapshot; the input is unmodified.
func Multiplex(c *Counters, slots int, seed uint64) *Counters {
	if slots <= 0 {
		slots = 4
	}
	out := *c
	groups := (len(Events) + slots - 1) / slots
	if groups <= 1 {
		// Everything fits; no multiplexing, no error.
		return &out
	}
	// Each group is live for 1/groups of the run; the relative sampling
	// error of the scaled estimate shrinks with the live fraction.
	// Empirically perf's multiplexing error on steady workloads is a few
	// percent; model sigma = 2% x sqrt(groups-1).
	sigma := 0.02 * math.Sqrt(float64(groups-1))
	rng := xrand.NewPCG32(seed ^ 0x9e1f)
	var scaled [len(Events)]float64
	for start := 0; start < len(Events); start += slots {
		scale := 1 + sigma*rng.NormFloat64()
		if scale < 0 {
			scale = 0
		}
		for i := start; i < min(start+slots, len(Events)); i++ {
			scaled[i] = float64(c.values[i]) * scale
		}
	}
	renormalizeBranches(&c.values, &scaled)
	for i, v := range scaled {
		// Round to nearest: flooring would turn a small count scaled by
		// a factor just under 1 into 0, a 100% relative error.
		out.values[i] = uint64(math.Round(v))
	}
	clampBranchInts(&out.values)
	return &out
}

// Indices in Events of the branch events Multiplex keeps consistent:
// the five branch-class subtypes, whose shares of AllBranches must
// survive scaling, the total and the mispredicts.
var (
	branchSubtypes = [...]int{
		event(CondBranches), event(DirectJumps), event(DirectCalls), event(IndirectJumps), event(Returns),
	}
	allBranches  = event(AllBranches)
	mispBranches = event(MispBranches)
)

// renormalizeBranches rescales the branch subtype counts so that they
// keep their original coverage of AllBranches after multiplex scaling:
// independent group factors could otherwise push
// Cond+Jump+Call+Indirect+Return past 100% of the scaled total. The
// subtype vector is scaled uniformly (preserving the measured class mix)
// to match scaledAll * (origSubtypeSum / origAll). The mispredict count
// is likewise clamped to the scaled total so mispredicts per branch stay
// <= 100%.
func renormalizeBranches(orig *[len(Events)]uint64, scaled *[len(Events)]float64) {
	allScaled := scaled[allBranches]
	var subOrig, subScaled float64
	for _, i := range branchSubtypes {
		subOrig += float64(orig[i])
		subScaled += scaled[i]
	}
	if allOrig := orig[allBranches]; allOrig > 0 && subOrig > 0 && subScaled > 0 {
		factor := allScaled * (subOrig / float64(allOrig)) / subScaled
		for _, i := range branchSubtypes {
			scaled[i] *= factor
		}
	}
	scaled[mispBranches] = min(scaled[mispBranches], allScaled)
}

// clampBranchInts restores the integer-domain invariants that rounding
// can nudge by a count or two: the branch subtype sum never exceeds
// AllBranches (excess comes off the largest subtype) and mispredicts
// never exceed AllBranches.
func clampBranchInts(out *[len(Events)]uint64) {
	all := out[allBranches]
	var sum uint64
	largest := branchSubtypes[0]
	for _, i := range branchSubtypes {
		sum += out[i]
		if out[i] > out[largest] {
			largest = i
		}
	}
	if excess := sum - all; sum > all && out[largest] >= excess {
		out[largest] -= excess
	}
	out[mispBranches] = min(out[mispBranches], all)
}
