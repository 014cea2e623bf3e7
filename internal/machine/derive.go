package machine

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// Counts is the one counter record: everything the performance model
// needs to turn a simulated (or predicted) stream into a Result. Every
// run mode snapshots its cores into it, sampled and parallel windows
// merge through it, the sampled and analytic tiers extrapolate it with
// Scaled, and DeriveResult derives the Result from it.
type Counts struct {
	// Kinds counts retired uops by kind.
	Kinds [trace.NumKinds]uint64
	// LoadLevel counts loads by the cache level that serviced them,
	// indexed by cache.HitLevel; DataLevel counts loads and stores.
	LoadLevel [4]uint64
	DataLevel [4]uint64
	// FetchMisses counts L1I misses, Walks counts DTLB page walks.
	FetchMisses uint64
	Walks       uint64
	// Branch is the per-class executed/mispredicted breakdown.
	Branch branch.Stats
	// RSSBytes and VSZBytes are the footprint high-water marks; they are
	// reported as-is, never extrapolated.
	RSSBytes uint64
	VSZBytes uint64
}

// each applies f to every event count of ct, paired with the same
// count of o. The footprint marks are not event counts.
func (ct *Counts) each(o *Counts, f func(v *uint64, ov uint64)) {
	for i := range ct.Kinds {
		f(&ct.Kinds[i], o.Kinds[i])
	}
	for i := range ct.LoadLevel {
		f(&ct.LoadLevel[i], o.LoadLevel[i])
		f(&ct.DataLevel[i], o.DataLevel[i])
	}
	f(&ct.FetchMisses, o.FetchMisses)
	f(&ct.Walks, o.Walks)
	for i := range ct.Branch.Executed {
		f(&ct.Branch.Executed[i], o.Branch.Executed[i])
		f(&ct.Branch.Mispredicted[i], o.Branch.Mispredicted[i])
	}
}

// sub returns the counts accumulated between prev and ct. The
// footprint marks are ct's own: a high-water mark has no difference.
func (ct Counts) sub(prev Counts) Counts {
	ct.each(&prev, func(v *uint64, p uint64) { *v -= p })
	return ct
}

// add accumulates w into ct; the footprint marks merge as the maximum.
func (ct *Counts) add(w Counts) {
	ct.each(&w, func(v *uint64, x uint64) { *v += x })
	ct.RSSBytes = max(ct.RSSBytes, w.RSSBytes)
	ct.VSZBytes = max(ct.VSZBytes, w.VSZBytes)
}

// Scaled extrapolates every event count by ratio, rounding to nearest:
// the step that stretches a measured slice of a stream (the sampled
// tier's detailed windows, the analytic tier's measure window) over
// the whole stream. The footprint marks are never scaled.
func (ct Counts) Scaled(ratio float64) Counts {
	ct.each(&ct, func(v *uint64, _ uint64) { *v = uint64(float64(*v)*ratio + 0.5) })
	return ct
}

// events converts the counts into the interval model's inputs.
func (ct *Counts) events() pipeline.Events {
	ev := pipeline.Events{
		L2Hits:      ct.DataLevel[cache.HitL2],
		L3Hits:      ct.DataLevel[cache.HitL3],
		MemAccesses: ct.DataLevel[cache.HitMemory],
		FetchMisses: ct.FetchMisses,
		Walks:       ct.Walks,
	}
	for _, k := range ct.Kinds {
		ev.Instructions += k
	}
	_, ev.Mispredicts = ct.Branch.Total()
	return ev
}

// DeriveResult runs the analytical back half of a characterization: the
// first-order interval model (stall events -> cycle breakdown -> IPC,
// with optional ILP calibration against a target IPC) plus the derived
// perf-counter view. It is shared by every fidelity tier — the exact
// and sampled kernels hand it measured counts, the analytic tier hands
// it predicted ones — so the tiers can never drift apart in how counts
// become a Result.
func DeriveResult(cfg Config, opt Options, ct Counts) (*Result, error) {
	ev := ct.events()
	n, misp := ev.Instructions, ev.Mispredicts
	w := opt.Workload
	res := &Result{Events: ev, ILP: w.ILP, Calibrated: false}
	if opt.CalibrateIPC > 0 {
		stalls := ev
		stalls.Instructions = 0
		stallPer := pipeline.Cycles(cfg.Pipeline, w, stalls).Total() / float64(n)
		res.ILP, res.Calibrated = pipeline.SolveILP(cfg.Pipeline, opt.CalibrateIPC, stallPer)
		w.ILP = res.ILP
	}
	res.Breakdown = pipeline.Cycles(cfg.Pipeline, w, ev)
	cycles := res.Breakdown.Total()
	if cycles <= 0 {
		return nil, fmt.Errorf("machine: non-positive cycle count")
	}
	res.IPC = float64(n) / cycles

	bs := ct.Branch
	values := map[string]uint64{
		perf.InstRetired:   n,
		perf.RefCycles:     uint64(cycles),
		perf.UopsRetired:   n,
		perf.AllLoads:      ct.Kinds[trace.KindLoad],
		perf.AllStores:     ct.Kinds[trace.KindStore],
		perf.AllBranches:   ct.Kinds[trace.KindBranch],
		perf.MispBranches:  misp,
		perf.CondBranches:  bs.Executed[trace.BranchConditional],
		perf.DirectJumps:   bs.Executed[trace.BranchDirectJump],
		perf.DirectCalls:   bs.Executed[trace.BranchDirectCall],
		perf.IndirectJumps: bs.Executed[trace.BranchIndirectJump],
		perf.Returns:       bs.Executed[trace.BranchReturn],
		perf.L1Hit:         ct.LoadLevel[cache.HitL1],
		perf.L1Miss:        ct.LoadLevel[cache.HitL2] + ct.LoadLevel[cache.HitL3] + ct.LoadLevel[cache.HitMemory],
		perf.L2Hit:         ct.LoadLevel[cache.HitL2],
		perf.L2Miss:        ct.LoadLevel[cache.HitL3] + ct.LoadLevel[cache.HitMemory],
		perf.L3Hit:         ct.LoadLevel[cache.HitL3],
		perf.L3Miss:        ct.LoadLevel[cache.HitMemory],
		perf.ICacheMisses:  ev.FetchMisses,
		perf.DTLBWalks:     ev.Walks,
	}
	seconds := cycles / cfg.ClockHz
	res.Counters = perf.NewCounters(values, ct.RSSBytes, ct.VSZBytes, seconds)
	res.SimRSSBytes = ct.RSSBytes
	return res, nil
}
