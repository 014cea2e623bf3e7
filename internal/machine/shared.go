package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// sharedQuantum is the round-robin scheduling quantum of a shared-L3
// run, in instructions: each core advances this far through the batched
// kernel before the next core runs. It approximates fine-grained
// co-execution while keeping whole batches on one core's state; like
// BatchSize it is a fixed model constant, but unlike BatchSize it IS
// observable in the results (it sets the shared-level interleaving), so
// changing it requires bumping the rate key version in core.
const sharedQuantum = 1024

// SharedResult is the outcome of a multi-core shared-L3 run.
type SharedResult struct {
	// PerCore holds each stream's individual result.
	PerCore []*Result
	// AggregateIPC is total instructions over the slowest core's cycles —
	// the throughput view of a SPECrate-style run.
	AggregateIPC float64
	// SharedL3Misses and SharedL3MPKI describe the shared level itself:
	// demand misses summed over all cores, and the same per thousand
	// simulated instructions (the contention scaling-curve metric).
	SharedL3Misses uint64
	SharedL3MPKI   float64
	// BackInvalidations counts private-cache lines invalidated because a
	// shared-L3 eviction displaced their line (inclusive back-
	// invalidation accounting), over the measured window.
	BackInvalidations uint64
}

// RunShared simulates several uop streams on identical cores that share a
// single L3 cache, interleaving round-robin at sharedQuantum granularity
// through the batched kernel. The L3 is inclusive: evicting a shared
// line back-invalidates every core's private copy, and the accounting is
// reported on the result. It models the paper's multi-threaded SPECspeed
// runs and the rate-mode contention scenarios.
func RunShared(cfg Config, srcs []trace.Source, opt Options) (*SharedResult, error) {
	// Skipping one stream would still age the shared L3 through the
	// others; per-stream systematic sampling is not meaningful here.
	if err := checkRun(cfg, opt, "shared-L3 runs"); err != nil {
		return nil, err
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("machine: no streams")
	}
	d := newDriver(cfg, opt, srcs, true, nil)
	if err := d.warmup(); err != nil {
		return nil, err
	}
	if err := d.simulate(opt.Instructions, stageSimulate); err != nil {
		return nil, err
	}
	opt.Span.SetAttr("rate_copies", len(srcs))
	cts := make([]Counts, len(d.cores))
	for i, c := range d.cores {
		cts[i] = c.counts()
	}
	perCore, err := d.finish(cts...)
	if err != nil {
		return nil, err
	}
	out := &SharedResult{
		PerCore:           perCore,
		SharedL3Misses:    d.cores[0].hier.Cache(cache.L3).Stats().Misses,
		BackInvalidations: d.backInv,
	}
	maxCycles := 0.0
	totalInstr := uint64(0)
	for _, r := range perCore {
		maxCycles = max(maxCycles, r.Breakdown.Total())
		totalInstr += r.Events.Instructions
	}
	if maxCycles > 0 {
		out.AggregateIPC = float64(totalInstr) / maxCycles
	}
	if totalInstr > 0 {
		out.SharedL3MPKI = 1000 * float64(out.SharedL3Misses) / float64(totalInstr)
	}
	return out, nil
}

// WorkloadFromModel maps the profile-level ILP/MLP knobs into the pipeline
// model's Workload. The ILP field is only a starting point when the run
// calibrates to a target IPC.
func WorkloadFromModel(mlp float64) pipeline.Workload {
	return pipeline.Workload{ILP: 2, MLP: mlp}
}
