package analytic

import (
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/profile"
)

// streamAxes classifies every sweep axis by whether it changes the
// stream profile (and so must change ProfileKey) or only what Predict
// makes of it (and so must not), with a value that differs from the
// scaled Haswell base. A new axis fails TestProfileKeyAxes until it is
// classified here.
var streamAxes = map[string]struct {
	value  int64
	stream bool
}{
	"l1i.size":  {64 << 10, true},
	"l1i.ways":  {4, true},
	"l1d.size":  {64 << 10, true},
	"l2.size":   {512 << 10, true},
	"l3.size":   {4 << 20, true},
	"line":      {128, true},
	"btb.bits":  {10, true},
	"ras.depth": {8, true},
	"l1d.ways":  {4, false},
	"l2.ways":   {4, false},
	"l3.ways":   {8, false},
}

// TestProfileKeyAxes checks ProfileKey's sensitivity axis by axis, and
// for every predict-only axis that the profile really is unchanged — a
// key that ignored a stream input would serve one stream's profile for
// another.
func TestProfileKeyAxes(t *testing.T) {
	base := machine.HaswellScaled()
	m := appModel(t, "505.mcf_r")
	baseKey := ProfileKey(base, m)
	baseProf := mustProfile(t, m, base)
	for _, param := range machine.AxisParams() {
		ax, ok := streamAxes[param]
		if !ok {
			t.Errorf("axis %q is not classified as stream-changing or predict-only", param)
			continue
		}
		cfg, err := machine.ApplyAxis(base, param, ax.value)
		if err != nil {
			t.Fatal(err)
		}
		if changed := ProfileKey(cfg, m) != baseKey; changed != ax.stream {
			t.Errorf("axis %s=%d: key changed = %v, want %v", param, ax.value, changed, ax.stream)
		}
		if !ax.stream {
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			if got := mustProfile(t, m, cfg); !reflect.DeepEqual(got, baseProf) {
				t.Errorf("axis %s=%d is keyed predict-only but changes the profile", param, ax.value)
			}
		}
	}
	for param := range streamAxes {
		if _, err := machine.ApplyAxis(base, param, 1); err != nil {
			t.Errorf("classified axis %q no longer exists: %v", param, err)
		}
	}

	seeded := m
	seeded.Seed++
	if ProfileKey(base, seeded) == baseKey {
		t.Error("model seed does not change the key")
	}
	l1iPolicy := base
	l1iPolicy.Hierarchy.L1I.Policy = "srrip"
	if ProfileKey(l1iPolicy, m) == baseKey {
		t.Error("L1I policy does not change the key")
	}

	predictOnly := map[string]func(*machine.Config){
		"name":      func(c *machine.Config) { c.Name = "other" },
		"clock":     func(c *machine.Config) { c.ClockHz *= 2 },
		"pipeline":  func(c *machine.Config) { c.Pipeline.MemLatency *= 2 },
		"l2.policy": func(c *machine.Config) { c.Hierarchy.L2.Policy = "srrip" },
		"l3.policy": func(c *machine.Config) { c.Hierarchy.L3.Policy = "random:seed=3" },
	}
	for name, mut := range predictOnly {
		cfg := base
		mut(&cfg)
		if ProfileKey(cfg, m) != baseKey {
			t.Errorf("%s changes the key, but Profile never reads it", name)
		}
	}
}

func mustProfile(t *testing.T, m profile.Model, cfg machine.Config) *StreamProfile {
	t.Helper()
	gen, _ := setup(t, m, cfg, 1<<20)
	sp, err := Profile(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestPredictReusesProfile evaluates one profile at several machine
// points that share its key and requires every Result to equal a fresh
// fused Run bit for bit.
func TestPredictReusesProfile(t *testing.T) {
	base := machine.HaswellScaled()
	m := appModel(t, "541.leela_r")
	sp := mustProfile(t, m, base)
	for _, ways := range []int64{2, 4, 16} {
		cfg, err := machine.ApplyAxis(base, "l3.ways", ways)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Pipeline.MemLatency *= 2
		gen, opt := setup(t, m, cfg, 3<<20)
		want, err := Run(cfg, gen, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Predict(cfg, opt, sp)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("l3.ways=%d: Predict over a shared profile differs from Run:\n%+v\n%+v", ways, got, want)
		}
	}
	if _, err := Predict(base, machine.Options{}, sp); err == nil {
		t.Error("Predict accepted a zero-length run")
	}
}
