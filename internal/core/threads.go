package core

import (
	"context"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/trace"
)

// CharacterizeThreaded simulates a multi-threaded pair (Threads > 1) as
// that many co-running streams with private L1/L2 and a shared L3 — the
// configuration behind the paper's SPECspeed OpenMP runs and its
// observation that speed-fp IPC collapses under shared-cache pressure.
//
// Each thread runs the pair's model in a distinct address region (OpenMP
// data decomposition); rates are averaged across threads and counts
// summed. CharacterizePair uses a single stream and bakes contention into
// the calibrated ILP; this function makes the contention mechanical, for
// studies of the mechanism itself (see BenchmarkAblationSharedL3).
func CharacterizeThreaded(pair profile.Pair, opt Options) (*Characteristics, error) {
	opt = opt.withDefaults()
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	m := pair.Model
	threads := m.Threads
	if threads <= 1 {
		return characterizePairCtx(ctx, pair, opt)
	}
	// Threads share the problem: each works on its slice of the
	// footprint.
	tm := m
	tm.RSSMiB = m.RSSMiB / float64(threads)
	res, err := runCopies(ctx, opt.Machine, tm, threads, opt)
	if err != nil {
		return nil, err
	}
	c := &Characteristics{
		Pair:          pair,
		InstrBillions: m.InstrBillions,
		RSSMiB:        m.RSSMiB,
		VSZMiB:        m.VSZMiB,
	}
	// Average the per-core rate metrics; the cores are statistically
	// identical so this is a variance reduction, not a mixture.
	n := float64(threads)
	for _, core := range res.PerCore {
		c.IPC += core.IPC / n
		c.LoadPct += core.Counters.LoadPct() / n
		c.StorePct += core.Counters.StorePct() / n
		c.BranchPct += core.Counters.BranchPct() / n
		c.MispredictPct += core.Counters.MispredictPct() / n
		c.L1MissPct += core.Counters.CacheMissPct(1) / n
		c.L2MissPct += core.Counters.CacheMissPct(2) / n
		c.L3MissPct += core.Counters.CacheMissPct(3) / n
		c.Breakdown.Base += core.Breakdown.Base
		c.Breakdown.Mispredict += core.Breakdown.Mispredict
		c.Breakdown.L2 += core.Breakdown.L2
		c.Breakdown.L3 += core.Breakdown.L3
		c.Breakdown.Memory += core.Breakdown.Memory
		c.Breakdown.Fetch += core.Breakdown.Fetch
		c.Breakdown.TLB += core.Breakdown.TLB
		c.Calibrated = c.Calibrated || core.Calibrated
	}
	c.Counters = sumCounters(res)
	branches := float64(c.Counters.MustValue(perf.AllBranches))
	if branches > 0 {
		pct := func(name string) float64 {
			return 100 * float64(c.Counters.MustValue(name)) / branches
		}
		c.CondPct = pct(perf.CondBranches)
		c.JumpPct = pct(perf.DirectJumps)
		c.CallPct = pct(perf.DirectCalls)
		c.IndirectPct = pct(perf.IndirectJumps)
		c.ReturnPct = pct(perf.Returns)
	}
	c.ExecSeconds = m.InstrBillions * 1e9 / (c.IPC * opt.Machine.ClockHz * n)
	return c, nil
}

// runCopies runs n copies of m's stream on cfg's shared-L3 kernel, the
// way threaded pairs and rate-mode scenarios both do. Copy i is seeded
// m.Seed + i*0x9e37 so the copies' address streams decorrelate; the
// warmup covers the longest prologue. Callers set each copy's footprint
// through m.
func runCopies(ctx context.Context, cfg machine.Config, m profile.Model, n int, opt Options) (*machine.SharedResult, error) {
	srcs := make([]trace.Source, n)
	var prologue uint64
	for i := range srcs {
		cm := m
		cm.Seed = m.Seed + uint64(i)*0x9e37
		gen, err := synth.New(cm, cfg.Geometry())
		if err != nil {
			return nil, err
		}
		prologue = max(prologue, gen.Prologue())
		srcs[i] = gen
	}
	return machine.RunShared(cfg, srcs, machine.Options{
		Instructions:       opt.Instructions,
		WarmupInstructions: prologue,
		Workload:           pipeline.Workload{ILP: 2, MLP: m.MLP},
		CalibrateIPC:       m.TargetIPC,
		Context:            ctx,
		BatchSize:          opt.BatchSize,
		Span:               obs.SpanFromContext(ctx),
	})
}

// sumCounters merges per-core counter snapshots into one.
func sumCounters(res *machine.SharedResult) *perf.Counters {
	sums := map[string]uint64{}
	var rss, vsz uint64
	var seconds float64
	for _, core := range res.PerCore {
		for _, name := range core.Counters.Names() {
			v, _ := core.Counters.Value(name)
			sums[name] += v
		}
		rss += core.Counters.RSSBytes
		vsz += core.Counters.VSZBytes
		if core.Counters.Seconds > seconds {
			seconds = core.Counters.Seconds
		}
	}
	return perf.NewCounters(sums, rss, vsz, seconds)
}
