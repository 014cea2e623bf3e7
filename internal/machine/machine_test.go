package machine

import (
	"math"
	"testing"

	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/trace"
)

const testInstr = 150000

// testModel returns a mid-of-the-road workload model.
func testModel() profile.Model {
	return profile.Model{
		InstrBillions: 1000, TargetIPC: 1.5,
		LoadPct: 25, StorePct: 9, BranchPct: 16,
		Mix:           profile.DefaultIntBranchMix(),
		MispredictPct: 3, L1MissPct: 5, L2MissPct: 40, L3MissPct: 15,
		RSSMiB: 512, VSZMiB: 600, MLP: 2, CodeKiB: 400, BranchSites: 3000,
		Threads: 1, Seed: 42,
	}
}

func runModel(t *testing.T, m profile.Model) *Result {
	t.Helper()
	cfg := HaswellScaled()
	gen, err := synth.New(m, cfg.Geometry())
	if err != nil {
		t.Fatalf("synth.New: %v", err)
	}
	res, err := Run(cfg, gen, Options{
		Instructions:       testInstr,
		WarmupInstructions: gen.Prologue(),
		Workload:           pipeline.Workload{ILP: 2, MLP: m.MLP},
		CalibrateIPC:       m.TargetIPC,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestConfigsValid(t *testing.T) {
	for _, cfg := range []Config{Haswell(), HaswellScaled()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestGeometry(t *testing.T) {
	g := HaswellScaled().Geometry()
	if g.L1Lines != 512 || g.L2Lines != 4096 || g.L3Lines != 32768 {
		t.Errorf("geometry = %+v, want 512/4096/32768", g)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

// TestRunProducesAllCounters: the run counts every event; an event
// that derive forgot to fill would read zero.
func TestRunProducesAllCounters(t *testing.T) {
	res := runModel(t, testModel())
	for _, name := range perf.Events {
		if res.Counters.MustValue(name) == 0 {
			t.Errorf("counter %s is zero", name)
		}
	}
	if got := res.Counters.MustValue(perf.InstRetired); got != testInstr {
		t.Errorf("inst_retired = %d, want %d", got, testInstr)
	}
}

// TestInstructionMixEmerges: the measured mix tracks the model within
// sampling noise.
func TestInstructionMixEmerges(t *testing.T) {
	m := testModel()
	res := runModel(t, m)
	c := res.Counters
	if got := c.LoadPct(); math.Abs(got-m.LoadPct) > 1.0 {
		t.Errorf("load pct = %.2f, want %.2f", got, m.LoadPct)
	}
	if got := c.StorePct(); math.Abs(got-m.StorePct) > 1.0 {
		t.Errorf("store pct = %.2f, want %.2f", got, m.StorePct)
	}
	if got := c.BranchPct(); math.Abs(got-m.BranchPct) > 1.0 {
		t.Errorf("branch pct = %.2f, want %.2f", got, m.BranchPct)
	}
}

// TestBranchClassMixEmerges: the class breakdown follows the configured
// mix (conditional-dominated).
func TestBranchClassMixEmerges(t *testing.T) {
	m := testModel()
	res := runModel(t, m)
	c := res.Counters
	branches := float64(c.MustValue(perf.AllBranches))
	cond := float64(c.MustValue(perf.CondBranches))
	gotCond := cond / branches
	if math.Abs(gotCond-m.Mix.Cond) > 0.04 {
		t.Errorf("conditional fraction = %.3f, want %.3f", gotCond, m.Mix.Cond)
	}
	calls := c.MustValue(perf.DirectCalls)
	rets := c.MustValue(perf.Returns)
	if calls == 0 || rets == 0 {
		t.Fatal("no calls or returns generated")
	}
	ratio := float64(calls) / float64(rets)
	if ratio < 0.8 || ratio > 1.3 {
		t.Errorf("call/return ratio = %.2f, want ~1", ratio)
	}
}

// TestCacheMissRatesEmerge: per-level load miss rates land near the model
// targets through the real cache simulation.
func TestCacheMissRatesEmerge(t *testing.T) {
	m := testModel()
	res := runModel(t, m)
	c := res.Counters
	if got := c.CacheMissPct(1); math.Abs(got-m.L1MissPct) > 1.5 {
		t.Errorf("L1 miss = %.2f%%, want %.2f%%", got, m.L1MissPct)
	}
	if got := c.CacheMissPct(2); math.Abs(got-m.L2MissPct) > 8 {
		t.Errorf("L2 miss = %.2f%%, want %.2f%%", got, m.L2MissPct)
	}
	if got := c.CacheMissPct(3); math.Abs(got-m.L3MissPct) > 8 {
		t.Errorf("L3 miss = %.2f%%, want %.2f%%", got, m.L3MissPct)
	}
}

// TestMispredictRateEmerges: the gshare unit's mispredict rate tracks the
// model target.
func TestMispredictRateEmerges(t *testing.T) {
	for _, target := range []float64{0.6, 3, 8.6} {
		m := testModel()
		m.MispredictPct = target
		res := runModel(t, m)
		got := res.Counters.MispredictPct()
		if math.Abs(got-target) > 0.20*target+0.4 {
			t.Errorf("mispredict = %.2f%%, want ~%.2f%%", got, target)
		}
	}
}

// TestIPCCalibration: with a reachable target, the calibrated IPC lands on
// it; reported counters agree.
func TestIPCCalibration(t *testing.T) {
	m := testModel()
	res := runModel(t, m)
	if !res.Calibrated {
		t.Fatalf("IPC target %.2f unreachable (ILP %.2f)", m.TargetIPC, res.ILP)
	}
	if math.Abs(res.IPC-m.TargetIPC) > 0.02 {
		t.Errorf("IPC = %.3f, want %.3f", res.IPC, m.TargetIPC)
	}
	if got := res.Counters.IPC(); math.Abs(got-res.IPC) > 0.02 {
		t.Errorf("counter IPC %.3f != result IPC %.3f", got, res.IPC)
	}
}

// TestLowIPCWorkload: extreme memory-bound model (like 619.lbm_s) still
// calibrates to its tiny IPC.
func TestLowIPCWorkload(t *testing.T) {
	m := testModel()
	m.TargetIPC = 0.07
	m.L1MissPct, m.L2MissPct, m.L3MissPct = 9, 60, 55
	res := runModel(t, m)
	if math.Abs(res.IPC-0.07) > 0.01 {
		t.Errorf("IPC = %.3f, want 0.07", res.IPC)
	}
}

// TestHighIPCWorkload: a cache-friendly, predictable model reaches ~3 IPC.
func TestHighIPCWorkload(t *testing.T) {
	m := testModel()
	m.TargetIPC = 3.0
	m.L1MissPct, m.L2MissPct, m.L3MissPct = 1.2, 20, 6
	m.MispredictPct = 1.5
	m.BranchPct = 8
	m.CodeKiB = 100
	m.BranchSites = 800
	res := runModel(t, m)
	if !res.Calibrated {
		t.Skipf("IPC 3.0 unreachable with these stalls (ILP %.2f)", res.ILP)
	}
	if math.Abs(res.IPC-3.0) > 0.05 {
		t.Errorf("IPC = %.3f, want 3.0", res.IPC)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runModel(t, testModel())
	b := runModel(t, testModel())
	if a.IPC != b.IPC || a.Events != b.Events {
		t.Error("identical models produced different results")
	}
	for _, name := range perf.Events {
		if av, bv := a.Counters.MustValue(name), b.Counters.MustValue(name); av != bv {
			t.Errorf("counter %s differs: %d vs %d", name, av, bv)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	m1 := testModel()
	m2 := testModel()
	m2.Seed = 43
	a := runModel(t, m1)
	b := runModel(t, m2)
	if a.Counters.MustValue(perf.AllLoads) == b.Counters.MustValue(perf.AllLoads) {
		t.Error("different seeds produced identical load counts")
	}
}

// TestCodeFootprintDrivesICache: a large code footprint must produce more
// L1I misses than a small one.
func TestCodeFootprintDrivesICache(t *testing.T) {
	small := testModel()
	small.CodeKiB = 16
	small.BranchSites = 200
	big := testModel()
	big.CodeKiB = 4096
	big.BranchSites = 16000
	rs := runModel(t, small)
	rb := runModel(t, big)
	sMiss := rs.Counters.MustValue(perf.ICacheMisses)
	bMiss := rb.Counters.MustValue(perf.ICacheMisses)
	if bMiss <= sMiss*2 {
		t.Errorf("icache misses small=%d big=%d; want big >> small", sMiss, bMiss)
	}
}

// TestFootprintGrowsWithRSS: larger model RSS touches more simulated
// memory (until the treap cap).
func TestFootprintGrowsWithRSS(t *testing.T) {
	smallM := testModel()
	smallM.RSSMiB = 2
	bigM := testModel()
	bigM.RSSMiB = 64
	small := runModel(t, smallM)
	big := runModel(t, bigM)
	if big.SimRSSBytes <= small.SimRSSBytes {
		t.Errorf("sim RSS small=%d big=%d; want growth", small.SimRSSBytes, big.SimRSSBytes)
	}
}

func TestRunErrors(t *testing.T) {
	cfg := HaswellScaled()
	if _, err := Run(cfg, &trace.SliceSource{}, Options{Instructions: 0}); err == nil {
		t.Error("zero-length run accepted")
	}
	// Source shorter than requested window.
	src := &trace.SliceSource{Uops: []trace.Uop{{Kind: trace.KindALU}}}
	if _, err := Run(cfg, src, Options{Instructions: 100}); err == nil {
		t.Error("exhausted source not reported")
	}
	bad := cfg
	bad.ClockHz = 0
	gen, _ := synth.New(testModel(), cfg.Geometry())
	if _, err := Run(bad, gen, Options{Instructions: 10}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRunSharedContention(t *testing.T) {
	cfg := HaswellScaled()
	var prologue uint64
	mkSrc := func(seed uint64) trace.Source {
		m := testModel()
		// A heavier reuse profile so four cores' L3-resident pools
		// overflow the shared 2 MB L3.
		m.L1MissPct, m.L2MissPct, m.L3MissPct = 10, 60, 20
		m.Seed = seed
		gen, err := synth.New(m, cfg.Geometry())
		if err != nil {
			t.Fatalf("synth.New: %v", err)
		}
		prologue = gen.Prologue()
		return gen
	}
	solo, err := RunShared(cfg, []trace.Source{mkSrc(1)}, Options{
		Instructions: 60000, WarmupInstructions: prologue,
		Workload: pipeline.Workload{ILP: 2, MLP: 2}})
	if err != nil {
		t.Fatalf("solo: %v", err)
	}
	quad, err := RunShared(cfg, []trace.Source{mkSrc(1), mkSrc(2), mkSrc(3), mkSrc(4)}, Options{
		Instructions: 60000, WarmupInstructions: prologue,
		Workload: pipeline.Workload{ILP: 2, MLP: 2}})
	if err != nil {
		t.Fatalf("quad: %v", err)
	}
	// Sharing the L3 must not reduce per-core L3 hit rates to zero, but
	// the co-runners should increase this core's L3 miss count.
	soloMiss := solo.PerCore[0].Counters.MustValue(perf.L3Miss)
	quadMiss := quad.PerCore[0].Counters.MustValue(perf.L3Miss)
	if quadMiss <= soloMiss {
		t.Errorf("L3 misses solo=%d quad=%d; want contention to increase misses", soloMiss, quadMiss)
	}
	if quad.AggregateIPC <= 0 {
		t.Error("aggregate IPC not computed")
	}
}

// TestRunSharedConservation checks that a shared-L3 run's aggregate
// counters are the field-wise sums over its copies, for a rate run (four
// copies on the scaled machine) and a topology class run (two copies on
// its E-class machine): the shared level's misses are the copies'
// demand data misses, its MPKI is per the copies' summed instructions,
// and the aggregate IPC is the summed instructions over the slowest
// copy's cycles. Every copy retires exactly the requested window.
func TestRunSharedConservation(t *testing.T) {
	topo, err := ParseTopology("2P2E-random")
	if err != nil {
		t.Fatal(err)
	}
	const n = 60000
	for _, tc := range []struct {
		name   string
		cfg    Config
		copies int
	}{
		{"rate", HaswellScaled(), 4},
		{"topo", topo.ClassConfig(HaswellScaled(), "E"), 2},
	} {
		srcs := make([]trace.Source, tc.copies)
		var prologue uint64
		for i := range srcs {
			m := testModel()
			m.Seed += uint64(i) * 0x9e37
			gen, err := synth.New(m, tc.cfg.Geometry())
			if err != nil {
				t.Fatal(err)
			}
			prologue = max(prologue, gen.Prologue())
			srcs[i] = gen
		}
		res, err := RunShared(tc.cfg, srcs, Options{Instructions: n, WarmupInstructions: prologue,
			Workload: pipeline.Workload{ILP: 2, MLP: 2}})
		if err != nil {
			t.Fatal(err)
		}
		var instr, misses uint64
		cycles := 0.0
		for i, r := range res.PerCore {
			if r.Events.Instructions != n {
				t.Errorf("%s: copy %d retired %d instructions, want %d", tc.name, i, r.Events.Instructions, n)
			}
			instr += r.Events.Instructions
			misses += r.Events.MemAccesses
			cycles = max(cycles, r.Breakdown.Total())
		}
		if res.SharedL3Misses != misses || misses == 0 {
			t.Errorf("%s: shared L3 misses %d, copies' demand misses sum to %d", tc.name, res.SharedL3Misses, misses)
		}
		if want := 1000 * float64(misses) / float64(instr); res.SharedL3MPKI != want {
			t.Errorf("%s: shared L3 MPKI %v, want %v", tc.name, res.SharedL3MPKI, want)
		}
		if want := float64(instr) / cycles; res.AggregateIPC != want {
			t.Errorf("%s: aggregate IPC %v, want %v", tc.name, res.AggregateIPC, want)
		}
	}
}

func TestRunSharedErrors(t *testing.T) {
	cfg := HaswellScaled()
	if _, err := RunShared(cfg, nil, Options{Instructions: 10}); err == nil {
		t.Error("empty stream list accepted")
	}
}

func BenchmarkRunCharacterization(b *testing.B) {
	cfg := HaswellScaled()
	m := testModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen, err := synth.New(m, cfg.Geometry())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(cfg, gen, Options{
			Instructions: 50000,
			Workload:     pipeline.Workload{ILP: 2, MLP: 2},
			CalibrateIPC: m.TargetIPC,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWarmupLength(t *testing.T) {
	cases := []struct {
		opt  Options
		want uint64
	}{
		{Options{Instructions: 1000}, 250},                                          // default 25%
		{Options{Instructions: 1000, WarmupFraction: 0.5}, 500},                     // explicit fraction
		{Options{Instructions: 1000, WarmupFraction: -1}, 0},                        // disabled
		{Options{Instructions: 1000, WarmupInstructions: 300}, 550},                 // absolute + fraction
		{Options{Instructions: 1000, WarmupFraction: -1, WarmupInstructions: 7}, 7}, // absolute only
	}
	for i, c := range cases {
		if got := warmupLength(c.opt); got != c.want {
			t.Errorf("case %d: warmup = %d, want %d", i, got, c.want)
		}
	}
}

// TestUnifiedCodePathPollutesL2: with the unified path, instruction
// fetches insert code lines into L2, raising the data-side L2 miss rate
// for a code-heavy workload.
func TestUnifiedCodePathPollutesL2(t *testing.T) {
	m := testModel()
	m.CodeKiB = 2000
	m.BranchSites = 12000
	run := func(unified bool) float64 {
		cfg := HaswellScaled()
		cfg.UnifiedCodePath = unified
		gen, err := synth.New(m, cfg.Geometry())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg, gen, Options{
			Instructions:       100000,
			WarmupInstructions: gen.Prologue(),
			Workload:           pipeline.Workload{ILP: 2, MLP: m.MLP},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters.CacheMissPct(2)
	}
	split := run(false)
	unified := run(true)
	if unified <= split {
		t.Errorf("unified code path L2 miss %.2f%% not above split %.2f%%", unified, split)
	}
}
