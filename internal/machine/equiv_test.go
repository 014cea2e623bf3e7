package machine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/xrand"
)

// equivBatchSizes are the batch sizes every equivalence test sweeps:
// degenerate (1), prime and misaligned with every internal stride (7),
// small power of two (64), and the production default (4096).
var equivBatchSizes = []int{1, 7, 64, 4096}

// randomModel draws a structurally valid but otherwise arbitrary workload
// model. Ranges are deliberately wider than any real SPEC profile so the
// equivalence property is exercised beyond the shipped workloads.
func randomModel(rng *xrand.PCG32) profile.Model {
	loadPct := 2 + rng.Float64()*38
	storePct := 1 + rng.Float64()*(60-loadPct-2)
	mix := profile.BranchMix{
		Cond:         0.4 + rng.Float64()*0.5,
		Jump:         rng.Float64() * 0.2,
		IndirectJump: rng.Float64() * 0.1,
	}
	callRet := rng.Float64() * 0.2
	mix.Call, mix.Return = callRet/2, callRet/2
	sum := mix.Sum()
	mix.Cond /= sum
	mix.Jump /= sum
	mix.Call /= sum
	mix.IndirectJump /= sum
	mix.Return /= sum
	rss := 1 + rng.Float64()*256
	return profile.Model{
		InstrBillions: 1 + rng.Float64()*1000,
		TargetIPC:     0.3 + rng.Float64()*2.5,
		LoadPct:       loadPct,
		StorePct:      storePct,
		BranchPct:     1 + rng.Float64()*25,
		Mix:           mix,
		MispredictPct: rng.Float64() * 15,
		L1MissPct:     rng.Float64() * 40,
		L2MissPct:     rng.Float64() * 80,
		L3MissPct:     rng.Float64() * 90,
		RSSMiB:        rss,
		VSZMiB:        rss * (1 + rng.Float64()),
		MLP:           1 + rng.Float64()*9,
		CodeKiB:       2 + rng.Float64()*2000,
		BranchSites:   1 + rng.Intn(20000),
		Threads:       1,
		Seed:          rng.Uint64(),
	}
}

// runKernel simulates m on cfg with the given batch size; batch 0 runs
// the per-uop reference kernel. A fresh generator is built each call, so
// repeated calls see identical streams.
func runKernel(t *testing.T, cfg Config, m profile.Model, instr uint64, batch int) *Result {
	t.Helper()
	gen, err := synth.New(m, cfg.Geometry())
	if err != nil {
		t.Fatalf("synth.New: %v", err)
	}
	opt := Options{
		Instructions:       instr,
		WarmupInstructions: gen.Prologue(),
		Workload:           pipeline.Workload{ILP: 2, MLP: m.MLP},
		CalibrateIPC:       m.TargetIPC,
		BatchSize:          batch,
	}
	var res *Result
	if batch == 0 {
		res, err = RunReference(cfg, gen, opt)
	} else {
		res, err = Run(cfg, gen, opt)
	}
	if err != nil {
		t.Fatalf("run (batch=%d): %v", batch, err)
	}
	return res
}

// diffResults returns a field-by-field description of how two Results
// differ, or "" when they are deeply equal.
func diffResults(ref, got *Result) string {
	if reflect.DeepEqual(ref, got) {
		return ""
	}
	var out string
	rv, gv := reflect.ValueOf(*ref), reflect.ValueOf(*got)
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Type().Field(i)
		a, b := rv.Field(i).Interface(), gv.Field(i).Interface()
		if !reflect.DeepEqual(a, b) {
			out += fmt.Sprintf("  %s: reference %+v != batched %+v\n", f.Name, a, b)
		}
	}
	if out == "" {
		out = "  (difference inside unexported state)\n"
	}
	return out
}

// TestBatchedKernelMatchesReference is the central equivalence property:
// for randomized workload models and seeds, the batched kernel produces a
// Result bit-identical to the per-uop reference kernel at every batch
// size, on both the scaled characterization machine and the full-size
// unified-code-path machine.
func TestBatchedKernelMatchesReference(t *testing.T) {
	const instr = 20000
	rng := xrand.NewPCG32(0xba7c4ed) // any fixed seed works
	configs := []Config{HaswellScaled(), Haswell()}
	for trial := 0; trial < 6; trial++ {
		m := randomModel(rng)
		cfg := configs[trial%len(configs)]
		ref := runKernel(t, cfg, m, instr, 0)
		for _, bs := range equivBatchSizes {
			got := runKernel(t, cfg, m, instr, bs)
			if d := diffResults(ref, got); d != "" {
				t.Errorf("trial %d (%s, seed %#x) batch=%d diverges from reference:\n%s",
					trial, cfg.Name, m.Seed, bs, d)
			}
		}
	}
}

// TestBatchedKernelBatchSizeIndependent checks batched-vs-batched: every
// batch size yields the same Result as the default, including sizes that
// do not divide the warmup or measurement windows.
func TestBatchedKernelBatchSizeIndependent(t *testing.T) {
	const instr = 30011 // prime, so no batch size divides it
	cfg := HaswellScaled()
	m := testModel()
	base := runKernel(t, cfg, m, instr, DefaultBatchSize)
	for _, bs := range []int{1, 7, 64, 100, 4096, 1 << 16} {
		got := runKernel(t, cfg, m, instr, bs)
		if d := diffResults(base, got); d != "" {
			t.Errorf("batch=%d diverges from batch=%d:\n%s", bs, DefaultBatchSize, d)
		}
	}
}

// TestBatchedKernelPolicyVariants runs the equivalence property across
// every catalogued replacement policy at every level. The batched
// kernel's set memos and register dedups assume each policy's touch is
// idempotent; the reference kernel uses neither, so a catalogue entry
// that broke the assumption would diverge here.
func TestBatchedKernelPolicyVariants(t *testing.T) {
	const instr = 15000
	m := testModel()
	for _, pol := range cache.Policies() {
		cfg := HaswellScaled()
		h := &cfg.Hierarchy
		h.L1I.Policy, h.L1D.Policy, h.L2.Policy, h.L3.Policy = pol, pol, pol, pol
		ref := runKernel(t, cfg, m, instr, 0)
		for _, bs := range equivBatchSizes {
			got := runKernel(t, cfg, m, instr, bs)
			if d := diffResults(ref, got); d != "" {
				t.Errorf("policy %s batch=%d diverges from reference:\n%s", pol, bs, d)
			}
		}
	}
}

// TestBatchedKernelRealProfiles spot-checks equivalence on real CPU2017
// models, which exercise the production parameter space (including large
// footprints and branch-site populations).
func TestBatchedKernelRealProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("real-profile sweep is slow")
	}
	const instr = 20000
	cfg := HaswellScaled()
	apps := profile.CPU2017()
	for _, i := range []int{0, len(apps) / 3, 2 * len(apps) / 3, len(apps) - 1} {
		pair := apps[i].Expand(profile.Ref)[0]
		ref := runKernel(t, cfg, pair.Model, instr, 0)
		for _, bs := range equivBatchSizes {
			got := runKernel(t, cfg, pair.Model, instr, bs)
			if d := diffResults(ref, got); d != "" {
				t.Errorf("%s batch=%d diverges from reference:\n%s", pair.Name(), bs, d)
			}
		}
	}
}
