package core

import (
	"math"
	"testing"

	"repro/internal/perf"
)

// counterLaws are the conservation laws a counter snapshot must obey.
// Each returns the signed amount by which a snapshot breaks it, 0 when
// it holds.
var counterLaws = []struct {
	name string
	dev  func(v func(string) uint64) int64
}{
	// Each cache level's load hits and misses add up to the loads that
	// reached it.
	{"l1", func(v func(string) uint64) int64 {
		return int64(v(perf.L1Hit) + v(perf.L1Miss) - v(perf.AllLoads))
	}},
	{"l2", func(v func(string) uint64) int64 {
		return int64(v(perf.L2Hit) + v(perf.L2Miss) - v(perf.L1Miss))
	}},
	{"l3", func(v func(string) uint64) int64 {
		return int64(v(perf.L3Hit) + v(perf.L3Miss) - v(perf.L2Miss))
	}},
	// The five branch classes add up to all branches, and no more
	// branches mispredict than execute.
	{"br", func(v func(string) uint64) int64 {
		sum := v(perf.CondBranches) + v(perf.DirectJumps) + v(perf.DirectCalls) + v(perf.IndirectJumps) + v(perf.Returns)
		return int64(sum - v(perf.AllBranches))
	}},
	{"misp", func(v func(string) uint64) int64 {
		return max(0, int64(v(perf.MispBranches)-v(perf.AllBranches)))
	}},
	// The model retires one uop per instruction.
	{"uops", func(v func(string) uint64) int64 {
		return int64(v(perf.UopsRetired) - v(perf.InstRetired))
	}},
}

// knownBreaks lists, per golden scenario and law (counter or
// percentage), how many of the six pinned rows break the law today. The
// sampled and analytic tiers scale a measured window up to the run
// length one counter field at a time (machine.Counts.Scaled rounds each
// field separately), so a sum of scaled fields can miss the scaled
// total by one, and the branch-class shares then miss 100 by that one
// branch's share. Fixing that rounding moves those tiers' goldens and
// keys; until then the counts are pinned here, so a fix and a new break
// both fail this test.
var knownBreaks = map[string]map[string]int{
	"sampled":  {"l1": 3, "br": 3, "classes": 3},
	"analytic": {"br": 2, "classes": 2},
}

// pctLaws are the percentage laws a row's reported shares must obey to
// within pctTolerance. Each returns the signed deviation from 100.
var pctLaws = []struct {
	name string
	dev  func(c *Characteristics) float64
}{
	// Loads, stores, branches and the rest of the retired instructions
	// (arithmetic, counted from the row's snapshot) make up the whole
	// instruction mix.
	{"mix", func(c *Characteristics) float64 {
		v := c.Counters.MustValue
		n := v(perf.InstRetired)
		rest := 100 * float64(n-v(perf.AllLoads)-v(perf.AllStores)-v(perf.AllBranches)) / float64(n)
		return c.LoadPct + c.StorePct + c.BranchPct + rest - 100
	}},
	// The five branch classes make up all branches.
	{"classes", func(c *Characteristics) float64 {
		return c.CondPct + c.JumpPct + c.CallPct + c.IndirectPct + c.ReturnPct - 100
	}},
}

const pctTolerance = 1e-9

// TestCounterConservation checks every row TestGoldenMetrics pins
// against counterLaws and pctLaws. The exact-kernel scenarios (exact,
// j-pair, rate, topo) must obey every counter law exactly and every
// percentage law within pctTolerance; a break listed in knownBreaks
// must be off by no more than one count, or one branch's share.
func TestCounterConservation(t *testing.T) {
	for _, sc := range goldenScenarios {
		t.Run(sc.name, func(t *testing.T) {
			broken := map[string]int{}
			for _, c := range goldenRun(t, sc.scenario) {
				for _, law := range counterLaws {
					d := law.dev(c.Counters.MustValue)
					if d == 0 {
						continue
					}
					broken[law.name]++
					if knownBreaks[sc.name][law.name] == 0 || d < -1 || d > 1 {
						t.Errorf("%s: law %s off by %d", c.Pair.Name(), law.name, d)
					}
				}
				oneBranch := 100 / float64(c.Counters.MustValue(perf.AllBranches))
				for _, law := range pctLaws {
					d := math.Abs(law.dev(&c))
					if d <= pctTolerance {
						continue
					}
					broken[law.name]++
					if knownBreaks[sc.name][law.name] == 0 || d > oneBranch+pctTolerance {
						t.Errorf("%s: law %s off by %g", c.Pair.Name(), law.name, d)
					}
				}
			}
			for name, want := range knownBreaks[sc.name] {
				if got := broken[name]; got != want {
					t.Errorf("law %s broken on %d rows, knownBreaks lists %d", name, got, want)
				}
			}
			for name, got := range broken {
				if _, ok := knownBreaks[sc.name][name]; !ok {
					t.Errorf("law %s broken on %d rows, knownBreaks lists none", name, got)
				}
			}
		})
	}
}
