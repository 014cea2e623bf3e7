package core

import (
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

// knownBreaks lists, per golden scenario and law, how many of the six
// pinned rows break the law today. The sampled and analytic tiers scale
// a measured window up to the run length one counter field at a time
// (machine.Counts.Scaled rounds each field separately), so a sum of
// scaled fields can miss the scaled total by one. Fixing that rounding
// moves those tiers' goldens and keys; until then the counts are pinned
// here, so a fix and a new break both fail this test.
var knownBreaks = map[string]map[string]int{
	"sampled":  {"l1": 3, "br": 3},
	"analytic": {"br": 2},
}

// TestCounterConservation checks every row TestGoldenMetrics pins
// against counterLaws. The exact-kernel scenarios (exact, j-pair, rate,
// topo) must obey every law exactly; a break listed in knownBreaks must
// be off by no more than one.
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
			}
			for _, law := range counterLaws {
				if got, want := broken[law.name], knownBreaks[sc.name][law.name]; got != want {
					t.Errorf("law %s broken on %d rows, knownBreaks lists %d", law.name, got, want)
				}
			}
		})
	}
}
