package machine

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/trace"
)

// cancelCheckStride is how often (in instructions) RunReference polls
// Options.Context; a power of two so the check is a mask, not a divide.
const cancelCheckStride = 8192

// RunReference simulates one uop stream with the per-uop reference
// kernel. It is the executable specification the batched Run is tested
// against: both must produce bit-identical Results for the same
// configuration, source and options. Its core runs on a one-core
// "shared" L3 with no eviction callback, which behaves as a private one
// but leaves the set memos and register dedups off, so every uop takes
// the plain probe the batched kernel's shortcuts must agree with.
func RunReference(cfg Config, src trace.Source, opt Options) (*Result, error) {
	// The reference kernel is the exact-run executable specification; a
	// sampled reference would have nothing to be a reference for.
	if err := checkRun(cfg, opt, "the reference kernel (use Run)"); err != nil {
		return nil, err
	}
	c := newCore(cfg, cache.New(cfg.Hierarchy.L3))
	checkCancel := opt.Context != nil
	if warm := warmupLength(opt); warm > 0 {
		var u trace.Uop
		for i := uint64(0); i < warm; i++ {
			if checkCancel && i&(cancelCheckStride-1) == 0 {
				if err := opt.Context.Err(); err != nil {
					return nil, err
				}
			}
			if !c.step(src, &u) {
				return nil, fmt.Errorf("machine: source exhausted during warmup")
			}
		}
		c.resetStats()
	}
	var u trace.Uop
	for i := uint64(0); i < opt.Instructions; i++ {
		if checkCancel && i&(cancelCheckStride-1) == 0 {
			if err := opt.Context.Err(); err != nil {
				return nil, err
			}
		}
		if !c.step(src, &u) {
			return nil, fmt.Errorf("machine: source exhausted after %d instructions", i)
		}
	}
	return DeriveResult(cfg, opt, c.counts())
}

// step consumes one uop. It returns false when the source is exhausted.
func (c *core) step(src trace.Source, u *trace.Uop) bool {
	if !src.Next(u) {
		return false
	}
	c.process(u)
	return true
}

// process simulates one uop through every component model.
func (c *core) process(u *trace.Uop) {
	c.kinds[u.Kind]++
	if c.unified {
		c.hier.Fetch(u.PC)
	} else if !c.hier.L1I().Access(u.PC, cache.AccessFetch) {
		// Sequential next-line instruction prefetch.
		c.hier.L1I().Access(u.PC+64, cache.AccessPrefetch)
	}
	switch u.Kind {
	case trace.KindLoad, trace.KindStore:
		kind := cache.AccessLoad
		if u.Kind == trace.KindStore {
			kind = cache.AccessStore
		}
		level := c.hier.Data(u.Addr, kind)
		c.dataLevel[level]++
		if u.Kind == trace.KindLoad {
			c.loadLevel[level]++
		}
		c.tlb.Translate(u.Addr)
		c.foot.Touch(u.Addr)
	case trace.KindBranch:
		c.unit.Resolve(u)
	}
}

// BenchmarkKernelMachine measures the full simulation: the per-uop
// reference kernel (RunReference) against the batched production kernel
// (Run) on 64 Ki instructions of 508.namd_r ref, which is compute-dense
// with an L1-resident working set, so the kernel's own overheads dominate.
// The batched/peruop uops/s ratio is recorded in BENCH_kernel.json and
// gated there (floor: 1.5x).
func BenchmarkKernelMachine(b *testing.B) {
	const chunk = 1 << 16
	var pair profile.Pair
	for _, p := range profile.CPU2017() {
		if p.Name == "508.namd_r" {
			pair = p.Expand(profile.Ref)[0]
		}
	}
	cfg := HaswellScaled()
	run := func(b *testing.B, batched bool) {
		var total uint64
		for i := 0; i < b.N; i++ {
			// Generator construction is setup, not kernel work: each
			// iteration needs a fresh generator (identical stream), so
			// build it with the timer stopped.
			b.StopTimer()
			gen, err := synth.New(pair.Model, cfg.Geometry())
			if err != nil {
				b.Fatal(err)
			}
			opt := Options{
				Instructions:       chunk,
				WarmupInstructions: gen.Prologue(),
				Workload:           pipeline.Workload{ILP: 2, MLP: pair.Model.MLP},
			}
			// Warmup instructions run through the same kernel, so count
			// them in the throughput denominator.
			total = opt.Instructions + opt.WarmupInstructions
			b.StartTimer()
			if batched {
				_, err = Run(cfg, gen, opt)
			} else {
				_, err = RunReference(cfg, gen, opt)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(total)*float64(b.N)/s, "uops/s")
		}
	}
	b.Run("peruop", func(b *testing.B) { run(b, false) })
	b.Run("batched", func(b *testing.B) { run(b, true) })
}
