package machine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/trace"
)

func TestParseSampling(t *testing.T) {
	def := DefaultSampling()
	good := []struct {
		in   string
		want Sampling
	}{
		{"", Sampling{}},
		{"off", Sampling{}},
		{"OFF", Sampling{}},
		{"none", Sampling{}},
		{"0", Sampling{}},
		{"on", def},
		{"default", Sampling{Period: 262144, DetailLen: 8192, WarmupLen: 8192}},
		{"262144/8192/8192", def},
		{" 1024 / 256 / 128 ", Sampling{Period: 1024, DetailLen: 256, WarmupLen: 128}},
		{"1024/1024/0", Sampling{Period: 1024, DetailLen: 1024}},
	}
	for _, tc := range good {
		got, err := ParseSampling(tc.in)
		if err != nil {
			t.Errorf("ParseSampling(%q): unexpected error %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSampling(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	bad := []string{
		"1024/256",                  // two fields
		"1024/256/128/64",           // four fields
		"a/b/c",                     // not numbers
		"-1/2/3",                    // negative
		"0/8192/8192",               // zero period with windows
		"1024/0/0",                  // zero detail window
		"8192/8192/4096",            // windows exceed period
		"10/18446744073709551615/2", // window sum wraps past the period
		"fastest",                   // unknown keyword
	}
	for _, in := range bad {
		if got, err := ParseSampling(in); err == nil {
			t.Errorf("ParseSampling(%q) = %+v, want error", in, got)
		}
	}
}

func TestSamplingValidateAndString(t *testing.T) {
	if err := (Sampling{}).Validate(); err != nil {
		t.Errorf("zero Sampling should validate: %v", err)
	}
	if err := (Sampling{DetailLen: 1}).Validate(); err == nil {
		t.Error("windows without a period should not validate")
	}
	if err := (Sampling{Period: 100, WarmupLen: 10}).Validate(); err == nil {
		t.Error("zero detail window should not validate")
	}
	if err := (Sampling{Period: 100, DetailLen: 60, WarmupLen: 50}).Validate(); err == nil {
		t.Error("windows exceeding the period should not validate")
	}
	if err := (Sampling{Period: 10, DetailLen: 2, WarmupLen: ^uint64(0)}).Validate(); err == nil {
		t.Error("windows whose sum wraps past the period should not validate")
	}
	if s := (Sampling{}).String(); s != "off" {
		t.Errorf("String() of disabled knob = %q, want off", s)
	}
	if s := DefaultSampling().String(); s != "262144/8192/8192" {
		t.Errorf("String() of default knob = %q", s)
	}
	if got, err := ParseSampling(DefaultSampling().String()); err != nil || got != DefaultSampling() {
		t.Errorf("String/Parse round-trip = %+v, %v", got, err)
	}
}

// samplingRun simulates one model, exact or sampled, mirroring how the
// core package drives sampled characterization (absolute prologue
// warmup, no fractional warmup under sampling).
func samplingRun(t *testing.T, cfg Config, m profile.Model, n uint64, sp Sampling, reference bool) *Result {
	t.Helper()
	gen, err := synth.New(m, cfg.Geometry())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		Instructions:       n,
		WarmupInstructions: gen.Prologue(),
		Workload:           pipeline.Workload{ILP: 2, MLP: m.MLP},
		CalibrateIPC:       m.TargetIPC,
		Sampling:           sp,
	}
	if sp.Enabled() {
		opt.WarmupFraction = -1
	}
	var res *Result
	if reference {
		res, err = RunReference(cfg, gen, opt)
	} else {
		res, err = Run(cfg, gen, opt)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSampledTolerance is the fidelity gate for the default sampling
// knob: on a 16Mi-instruction stream every headline metric of a sampled
// run must land within 2% relative of the exact run, or — where a
// metric's event population is too thin or too placement-sensitive for
// a relative bound to be meaningful at a ~3% sampled fraction — within
// a per-family absolute floor (percentage points) sized from the
// measured errors in EXPERIMENTS.md with ~1.5-2.5x headroom. IPC gets
// no floor: the 2% relative bound is the headline claim.
//
// The exact side for testModel is the per-uop RunReference kernel; the
// CPU2017 families compare against the batched exact Run, which the
// equivalence suite pins bit-identical to RunReference.
func TestSampledTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second tolerance sweep")
	}
	const n = 16 << 20
	cfg := HaswellScaled()
	cases := []struct {
		name               string
		model              profile.Model
		reference          bool
		l1, l2, l3, mispFl float64 // absolute floors, percentage points
	}{
		{"testModel", testModel(), true, 0.3, 8, 3, 0.75},
		{"505.mcf_r", profile.Model{}, false, 0.3, 2, 2.5, 0.5},
		{"525.x264_r", profile.Model{}, false, 0.3, 4, 2, 0.75},
		{"541.leela_r", profile.Model{}, false, 0.3, 2, 1, 1.0},
		{"519.lbm_r", profile.Model{}, false, 0.3, 14, 11, 0.4},
	}
	for _, app := range profile.CPU2017() {
		for i := range cases {
			if cases[i].name == app.Name {
				cases[i].model = app.Expand(profile.Ref)[0].Model
			}
		}
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.model.TargetIPC == 0 {
				t.Fatalf("model %s not found", tc.name)
			}
			exact := samplingRun(t, cfg, tc.model, n, Sampling{}, tc.reference)
			sampled := samplingRun(t, cfg, tc.model, n, DefaultSampling(), false)
			if sampled.Sampling == nil || sampled.Sampling.Windows == 0 {
				t.Fatal("sampled run reported no windows")
			}
			var g stats.Gate
			tol := func(floor float64) stats.Tolerance {
				return stats.Tolerance{Rel: 0.02, Abs: floor}
			}
			g.Check("IPC", sampled.IPC, exact.IPC, tol(0))
			g.Check("L1 miss%", sampled.Counters.CacheMissPct(1), exact.Counters.CacheMissPct(1), tol(tc.l1))
			g.Check("L2 miss%", sampled.Counters.CacheMissPct(2), exact.Counters.CacheMissPct(2), tol(tc.l2))
			g.Check("L3 miss%", sampled.Counters.CacheMissPct(3), exact.Counters.CacheMissPct(3), tol(tc.l3))
			g.Check("mispredict%", sampled.Counters.MispredictPct(), exact.Counters.MispredictPct(), tol(tc.mispFl))
			if !g.OK() {
				t.Error(g.Report())
			}
		})
	}
}

// TestSampledStats checks the shape of the attached extrapolation-error
// estimate on a branchy, cache-active model: the knob is echoed, the
// window count and sampled fraction match the knob arithmetic, and the
// metrics with dense event populations carry a positive standard-error
// estimate.
func TestSampledStats(t *testing.T) {
	const n = 4 << 20
	cfg := HaswellScaled()
	res := samplingRun(t, cfg, testModel(), n, DefaultSampling(), false)
	st := res.Sampling
	if st == nil {
		t.Fatal("sampled run missing SamplingStats")
	}
	def := DefaultSampling()
	if st.Period != def.Period || st.DetailLen != def.DetailLen || st.WarmupLen != def.WarmupLen {
		t.Errorf("stats echo %d/%d/%d, want %s", st.Period, st.DetailLen, st.WarmupLen, def)
	}
	// 4Mi instructions at one 8Ki window per 256Ki period, minus the
	// settle window's period: at least 10 windows whatever the jitter.
	if st.Windows < 10 || st.Windows > int(n/def.Period) {
		t.Errorf("Windows = %d, want in [10, %d]", st.Windows, n/def.Period)
	}
	if st.SampledFraction <= 0.01 || st.SampledFraction >= 0.1 {
		t.Errorf("SampledFraction = %f, want ~DetailLen/Period", st.SampledFraction)
	}
	if st.IPCRelErr < 0 || st.L1RelErr <= 0 || st.L2RelErr <= 0 || st.L3RelErr <= 0 || st.MispredictRelErr <= 0 {
		t.Errorf("expected positive error estimates on dense metrics, got %+v", st)
	}
	// The estimator must not claim absurd precision or absurd spread on
	// a well-behaved model: these are sanity rails, not tolerances.
	for name, v := range map[string]float64{
		"L1": st.L1RelErr, "Mispredict": st.MispredictRelErr,
	} {
		if v > 0.5 {
			t.Errorf("%sRelErr = %f, implausibly large", name, v)
		}
	}
}

// nextOnly hides every capability beyond Next, forcing the
// sourceBatcher adapter and its drain-based skip fallbacks.
type nextOnly struct{ src trace.Source }

func (s nextOnly) Next(u *trace.Uop) bool { return s.src.Next(u) }

// TestSampledSkipFallbackEquivalence pins the drain fallback to the
// native skip path at the machine level: a sampled run over a source
// that can only emit records bit-matches a sampled run over the native
// skipping generator, because Skip/SkipWarm advance the generator
// exactly as draining it would.
func TestSampledSkipFallbackEquivalence(t *testing.T) {
	const n = 2 << 20
	cfg := HaswellScaled()
	m := testModel()
	run := func(wrap bool) *Result {
		gen, err := synth.New(m, cfg.Geometry())
		if err != nil {
			t.Fatal(err)
		}
		var src trace.Source = gen
		if wrap {
			src = nextOnly{gen}
		}
		res, err := Run(cfg, src, Options{
			Instructions:       n,
			WarmupInstructions: gen.Prologue(),
			WarmupFraction:     -1,
			Workload:           pipeline.Workload{ILP: 2, MLP: m.MLP},
			CalibrateIPC:       m.TargetIPC,
			Sampling:           DefaultSampling(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	native, drained := run(false), run(true)
	if native.IPC != drained.IPC {
		t.Errorf("IPC differs: native %v, drained %v", native.IPC, drained.IPC)
	}
	if !reflect.DeepEqual(native.Counters, drained.Counters) {
		t.Errorf("counters differ between native skip and drain fallback:\nnative:  %+v\ndrained: %+v",
			native.Counters, drained.Counters)
	}
	if !reflect.DeepEqual(native.Sampling, drained.Sampling) {
		t.Errorf("sampling stats differ: %+v vs %+v", native.Sampling, drained.Sampling)
	}
}

// TestSampledDeterminism: the jittered window placement comes from a
// fixed-seed stream, so two sampled runs of the same pair are
// bit-identical.
func TestSampledDeterminism(t *testing.T) {
	const n = 2 << 20
	cfg := HaswellScaled()
	a := samplingRun(t, cfg, testModel(), n, DefaultSampling(), false)
	b := samplingRun(t, cfg, testModel(), n, DefaultSampling(), false)
	if a.IPC != b.IPC || !reflect.DeepEqual(a.Counters, b.Counters) || !reflect.DeepEqual(a.Sampling, b.Sampling) {
		t.Error("two sampled runs of the same pair differ")
	}
}

// TestSampledShortStreamExact: a stream under two periods falls back to
// exact simulation — bit-identical counters to a plain exact run — and
// says so in the stats.
func TestSampledShortStreamExact(t *testing.T) {
	const n = 300_000 // < 2 * DefaultSampling().Period
	cfg := HaswellScaled()
	m := testModel()
	run := func(sp Sampling) *Result {
		gen, err := synth.New(m, cfg.Geometry())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg, gen, Options{
			Instructions:       n,
			WarmupInstructions: gen.Prologue(),
			WarmupFraction:     -1, // identical warmup on both sides
			Workload:           pipeline.Workload{ILP: 2, MLP: m.MLP},
			CalibrateIPC:       m.TargetIPC,
			Sampling:           sp,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	exact, sampled := run(Sampling{}), run(DefaultSampling())
	st := sampled.Sampling
	if st == nil || st.Windows != 0 || st.SampledFraction != 1 {
		t.Fatalf("short stream should report exact fallback, got %+v", st)
	}
	if sampled.IPC != exact.IPC || !reflect.DeepEqual(sampled.Counters, exact.Counters) {
		t.Error("short-stream sampled run is not bit-identical to the exact run")
	}
}

// TestSampledHugePeriodExact: a period so large that twice it wraps
// still marks a 1Mi-instruction stream as too short to sample, so the
// run takes the exact fallback instead of counting zero windows.
func TestSampledHugePeriodExact(t *testing.T) {
	sp, err := ParseSampling("9223372036854775808/1/0")
	if err != nil {
		t.Fatal(err)
	}
	res := samplingRun(t, HaswellScaled(), testModel(), 1<<20, sp, false)
	if st := res.Sampling; st == nil || st.Windows != 0 || st.SampledFraction != 1 {
		t.Fatalf("period 2^63 should report exact fallback, got %+v", st)
	}
}

// TestSamplingRejected: the reference and shared-L3 kernels refuse the
// knob, and Run refuses malformed knobs.
func TestSamplingRejected(t *testing.T) {
	cfg := HaswellScaled()
	m := testModel()
	gen, err := synth.New(m, cfg.Geometry())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Instructions: 1000, Sampling: DefaultSampling()}
	if _, err := RunReference(cfg, gen, opt); err == nil || !strings.Contains(err.Error(), "sampling") {
		t.Errorf("RunReference with sampling: err = %v, want sampling rejection", err)
	}
	if _, err := RunShared(cfg, []trace.Source{gen}, opt); err == nil || !strings.Contains(err.Error(), "sampling") {
		t.Errorf("RunShared with sampling: err = %v, want sampling rejection", err)
	}
	bad := opt
	bad.Sampling = Sampling{Period: 100, DetailLen: 200}
	if _, err := Run(cfg, gen, bad); err == nil {
		t.Error("Run accepted an invalid sampling knob")
	}
}

// cancelOnSkip cancels its run's context the first time the kernel
// fast-forwards it, and counts every record skipped from then on.
type cancelOnSkip struct {
	*synth.Generator
	cancel  context.CancelFunc
	skipped uint64
}

func (s *cancelOnSkip) Skip(n uint64) uint64 {
	s.cancel()
	got := s.Generator.Skip(n)
	s.skipped += got
	return got
}

func (s *cancelOnSkip) SkipWarm(n uint64, observe func(*trace.Uop)) uint64 {
	s.cancel()
	got := s.Generator.SkipWarm(n, observe)
	s.skipped += got
	return got
}

// TestSampledGapHonoursCancel: a context cancelled inside a sampling
// gap stops the run within one skip chunk of the cancellation, however
// long the period makes the gap.
func TestSampledGapHonoursCancel(t *testing.T) {
	cfg := HaswellScaled()
	gen, err := synth.New(testModel(), cfg.Geometry())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelOnSkip{Generator: gen, cancel: cancel}
	_, err = Run(cfg, src, Options{
		Instructions:       1 << 30,
		WarmupFraction:     -1,
		WarmupInstructions: gen.Prologue(),
		Workload:           pipeline.Workload{ILP: 2, MLP: 2},
		Context:            ctx,
		Sampling:           Sampling{Period: 1 << 27, DetailLen: 8192, WarmupLen: 8192},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if src.skipped == 0 || src.skipped > 2*skipChunkLen {
		t.Fatalf("skipped %d records after the cancel, want 1..%d", src.skipped, 2*skipChunkLen)
	}
}

// TestBridgeMemoConcurrent runs sampled runs of one stream four at a
// time on generators that share one checkpoint table, two on each of
// two machines whose predictors differ. The first round walks and
// records every full bridge, racing on the same entries; the second
// restores them. Every run must equal the same machine's run on a
// table-less generator, and the second round must restore its bridges
// (run under -race by the race-kernel target).
func TestBridgeMemoConcurrent(t *testing.T) {
	const n = 4 * 262144
	m := testModel()
	gshare := HaswellScaled()
	gshare.Predictor = "gshare:14:12"
	cfgs := []Config{HaswellScaled(), gshare}
	table := synth.NewCheckpoints(m, cfgs[0].Geometry())
	run := func(cfg Config, gen *synth.Generator) *Result {
		res, err := Run(cfg, gen, Options{
			Instructions:       n,
			WarmupInstructions: gen.Prologue(),
			Workload:           pipeline.Workload{ILP: 2, MLP: m.MLP},
			CalibrateIPC:       m.TargetIPC,
			Sampling:           DefaultSampling(),
		})
		if err != nil {
			t.Error(err)
		}
		return res
	}
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		gen, err := synth.New(m, cfg.Geometry())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = run(cfg, gen)
	}
	for round := range 2 {
		var wg sync.WaitGroup
		for i := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				gen, err := table.New()
				if err != nil {
					t.Error(err)
					return
				}
				got := run(cfgs[i%2], gen)
				if !reflect.DeepEqual(got, want[i%2]) {
					t.Errorf("round %d, run %d: a run on the shared table differs from a table-less run", round, i)
				}
				if _, _, b := gen.CheckpointStats(); round == 1 && b == 0 {
					t.Errorf("round %d, run %d restored no bridge", round, i)
				}
			}()
		}
		wg.Wait()
	}
}
