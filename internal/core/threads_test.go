package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/profile"
)

func speedFPPair(t *testing.T, name string) profile.Pair {
	t.Helper()
	for _, p := range profile.CPU2017() {
		if p.Name == name {
			return p.Expand(profile.Ref)[0]
		}
	}
	t.Fatalf("app %s not found", name)
	return profile.Pair{}
}

func TestCharacterizeThreadedFallsBackForSingleThread(t *testing.T) {
	pair := profile.CPU2017()[2].Expand(profile.Ref)[0] // 505.mcf_r, Threads=1
	a, err := CharacterizeThreaded(pair, testOpt())
	if err != nil {
		t.Fatal(err)
	}
	b, err := CharacterizePair(pair, testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if a.IPC != b.IPC {
		t.Errorf("single-thread fallback differs: %v vs %v", a.IPC, b.IPC)
	}
}

func TestCharacterizeThreadedRuns(t *testing.T) {
	pair := speedFPPair(t, "619.lbm_s") // 4 threads
	c, err := CharacterizeThreaded(pair, Options{Instructions: 30000})
	if err != nil {
		t.Fatal(err)
	}
	if c.IPC <= 0 {
		t.Errorf("IPC = %v", c.IPC)
	}
	if c.LoadPct < 15 || c.LoadPct > 30 {
		t.Errorf("load pct = %v, model says ~22", c.LoadPct)
	}
	// Four threads' counters summed: instruction count is 4x the window.
	if got := c.Counters.MustValue("inst_retired.any"); got != 4*30000 {
		t.Errorf("summed instructions = %d, want 120000", got)
	}
	if c.ExecSeconds <= 0 {
		t.Errorf("exec seconds = %v", c.ExecSeconds)
	}
}

// TestSharedL3ContentionMechanism: co-running threads see a higher L3
// miss rate than a lone stream of the same model — the mechanical cause
// the paper assigns to the speed-fp IPC collapse.
func TestSharedL3ContentionMechanism(t *testing.T) {
	pair := speedFPPair(t, "603.bwaves_s")
	opt := Options{Instructions: 30000}
	solo, err := CharacterizePair(pair, opt)
	if err != nil {
		t.Fatal(err)
	}
	threaded, err := CharacterizeThreaded(pair, opt)
	if err != nil {
		t.Fatal(err)
	}
	if threaded.L3MissPct <= solo.L3MissPct {
		t.Errorf("threaded L3 miss %.2f%% not above solo %.2f%% under shared-LLC pressure",
			threaded.L3MissPct, solo.L3MissPct)
	}
}

// TestCharacterizeThreadedHonoursContext: a cancelled campaign context
// stops a threaded pair instead of simulating it to completion.
func TestCharacterizeThreadedHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pair := speedFPPair(t, "619.lbm_s")
	if _, err := CharacterizeThreaded(pair, Options{Instructions: 30000, Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
