package analytic

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/rdist"
	"repro/internal/synth"
)

// appModel returns the ref-input model of a named CPU2017 application.
func appModel(t testing.TB, name string) profile.Model {
	t.Helper()
	for _, app := range profile.CPU2017() {
		if app.Name == name {
			return app.Expand(profile.Ref)[0].Model
		}
	}
	t.Fatalf("no such app: %s", name)
	return profile.Model{}
}

// setup builds a fresh generator and matching options for one model.
func setup(t testing.TB, m profile.Model, cfg machine.Config, n uint64) (*synth.Generator, machine.Options) {
	t.Helper()
	gen, err := synth.New(m, cfg.Geometry())
	if err != nil {
		t.Fatal(err)
	}
	return gen, machine.Options{
		Instructions:       n,
		WarmupInstructions: gen.Prologue(),
		Workload:           pipeline.Workload{ILP: 2, MLP: m.MLP},
		CalibrateIPC:       m.TargetIPC,
	}
}

func TestRunSmoke(t *testing.T) {
	cfg := machine.HaswellScaled()
	m := appModel(t, "519.lbm_r")
	gen, opt := setup(t, m, cfg, 1<<20)
	res, err := Run(cfg, gen, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Errorf("IPC = %v, want > 0", res.IPC)
	}
	for lvl := 1; lvl <= 3; lvl++ {
		pct := res.Counters.CacheMissPct(lvl)
		if pct < 0 || pct > 100 {
			t.Errorf("L%d miss%% = %v, want in [0, 100]", lvl, pct)
		}
	}
	if pct := res.Counters.MispredictPct(); pct < 0 || pct > 100 {
		t.Errorf("mispredict%% = %v, want in [0, 100]", pct)
	}
	if res.Counters.RSSBytes == 0 {
		t.Error("RSSBytes = 0, want the prologue working set")
	}
}

// The analytic tier is a pure function of (config, model, options): two
// runs from fresh generators must agree bit for bit, or fleet-scattered
// campaigns would diverge from single-node ones.
func TestRunDeterministic(t *testing.T) {
	cfg := machine.HaswellScaled()
	m := appModel(t, "505.mcf_r")
	gen, opt := setup(t, m, cfg, 4<<20)
	a, err := Run(cfg, gen, opt)
	if err != nil {
		t.Fatal(err)
	}
	gen, opt = setup(t, m, cfg, 4<<20)
	b, err := Run(cfg, gen, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two analytic runs differ:\n%+v\n%+v", a, b)
	}
}

func TestRunRejections(t *testing.T) {
	m := appModel(t, "519.lbm_r")
	mk := func(mut func(*machine.Config, *machine.Options)) (machine.Config, *synth.Generator, machine.Options) {
		cfg := machine.HaswellScaled()
		gen, opt := setup(t, m, cfg, 1<<20)
		mut(&cfg, &opt)
		return cfg, gen, opt
	}
	cases := []struct {
		name string
		mut  func(*machine.Config, *machine.Options)
		want string
	}{
		{"zero length", func(c *machine.Config, o *machine.Options) { o.Instructions = 0 }, "zero-length"},
		{"sampling", func(c *machine.Config, o *machine.Options) { o.Sampling = machine.DefaultSampling() }, "sampling"},
		{"prefetcher", func(c *machine.Config, o *machine.Options) {
			c.Hierarchy.Prefetcher = "nextline:64:1"
		}, "prefetcher"},
		{"unified code path", func(c *machine.Config, o *machine.Options) { c.UnifiedCodePath = true }, "unified"},
		{"l1d policy", func(c *machine.Config, o *machine.Options) { c.Hierarchy.L1D.Policy = "plru" }, "plru replacement"},
		{"l2 policy", func(c *machine.Config, o *machine.Options) { c.Hierarchy.L2.Policy = "srrip" }, "srrip replacement"},
		{"l3 policy", func(c *machine.Config, o *machine.Options) { c.Hierarchy.L3.Policy = "random:seed=3" }, "random:seed=3 replacement"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, gen, opt := mk(tc.mut)
			_, err := Run(cfg, gen, opt)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestHitFractions(t *testing.T) {
	h := rdist.NewHistogram()
	for d := 0; d < 1000; d++ {
		h.Add(d)
	}
	h.Add(rdist.Infinite)

	line := func(sizeLines int, ways int) cache.Config {
		return cache.Config{Name: "t", SizeBytes: sizeLines * 64, Ways: ways, LineBytes: 64}
	}
	// Monotone in capacity, bounded by [0, warm fraction].
	prev := 0.0
	warm := float64(h.Total()-h.Cold()) / float64(h.Total())
	for _, lines := range []int{64, 256, 1024, 4096} {
		f := HitFractions(h, line(lines, 8))
		if f < prev || f > warm+1e-9 {
			t.Errorf("HitFractions(%d lines) = %v, want monotone in [%v, %v]", lines, f, prev, warm)
		}
		prev = f
	}
	// A cache far larger than any recorded distance hits every warm
	// reference; cold references always miss.
	if f := HitFractions(h, line(1<<20, 8)); f < warm-1e-9 {
		t.Errorf("huge cache hit fraction = %v, want %v", f, warm)
	}
	if f := HitFractions(rdist.NewHistogram(), line(64, 8)); f != 0 {
		t.Errorf("empty histogram hit fraction = %v, want 0", f)
	}
}

func TestLevelFractionsSumToOne(t *testing.T) {
	fr := levelFractions([3]float64{80, 90, 95}, 100)
	sum := 0.0
	for _, f := range fr {
		sum += f
	}
	if sum < 1-1e-12 || sum > 1+1e-12 {
		t.Errorf("fractions sum to %v, want 1", sum)
	}
	// Non-monotone sums (numerical noise) must clamp, not go negative.
	fr = levelFractions([3]float64{90, 89.999, 95}, 100)
	for lvl, f := range fr {
		if f < 0 {
			t.Errorf("level %d fraction = %v after clamp, want >= 0", lvl, f)
		}
	}
}

func TestSplitByLevelConserves(t *testing.T) {
	fr := [4]float64{0.701, 0.149, 0.1, 0.05}
	for _, total := range []uint64{0, 1, 7, 1000, 123457} {
		out := splitByLevel(total, fr)
		var sum uint64
		for _, n := range out {
			sum += n
		}
		if sum != total {
			t.Errorf("splitByLevel(%d) sums to %d", total, sum)
		}
	}
}
