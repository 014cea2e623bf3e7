package branch

import (
	"slices"
	"testing"

	"repro/internal/xrand"
)

func newTestTAGE() *TAGE { return NewTAGE(10) }

func TestTAGELearnsBias(t *testing.T) {
	for _, taken := range []bool{true, false} {
		p := newTestTAGE()
		outcome := func(int) bool { return taken }
		if rate := trainAndMeasure(p, outcome, 2000); rate > 0.02 {
			t.Errorf("tage mispredict %v on constant-%v stream", rate, taken)
		}
	}
}

func TestTAGELearnsAlternating(t *testing.T) {
	rate := trainAndMeasure(newTestTAGE(), func(i int) bool { return i%2 == 0 }, 4000)
	if rate > 0.02 {
		t.Errorf("tage mispredict %v on alternating pattern", rate)
	}
}

func TestTAGELearnsLongPeriod(t *testing.T) {
	// Period-24 pattern exceeds gshare(12)'s history but fits TAGE's
	// longer tables.
	pattern := make([]bool, 24)
	rng := xrand.NewPCG32(3)
	for i := range pattern {
		pattern[i] = rng.Bool(0.5)
	}
	rate := trainAndMeasure(newTestTAGE(), func(i int) bool { return pattern[i%24] }, 20000)
	if rate > 0.08 {
		t.Errorf("tage mispredict %v on period-24 pattern, want ~0", rate)
	}
}

func TestTAGEBeatsGshareOnLongRuns(t *testing.T) {
	// A loop of 30 taken iterations then 18 not-taken: every 12-bit
	// history window deep inside a run is uniform, so gshare cannot see
	// the exit coming; TAGE's long-history tables can.
	outcome := func(i int) bool { return i%48 < 30 }
	tageRate := trainAndMeasure(newTestTAGE(), outcome, 30000)
	gshareRate := trainAndMeasure(NewGshare(14, 12), outcome, 30000)
	if tageRate >= gshareRate {
		t.Errorf("tage %v not better than gshare %v on run-structured pattern", tageRate, gshareRate)
	}
	if tageRate > 0.02 {
		t.Errorf("tage mispredict %v on deterministic runs, want ~0", tageRate)
	}
}

func TestTAGERandomStreamNearHalf(t *testing.T) {
	rng := xrand.NewPCG32(11)
	outcomes := make([]bool, 6000)
	for i := range outcomes {
		outcomes[i] = rng.Bool(0.5)
	}
	rate := trainAndMeasure(newTestTAGE(), func(i int) bool { return outcomes[i] }, len(outcomes))
	if rate < 0.3 || rate > 0.7 {
		t.Errorf("tage mispredict %v on random stream, want ~0.5", rate)
	}
}

func TestTAGEMultipleBranches(t *testing.T) {
	// Two independent biased branches must not corrupt each other.
	p := newTestTAGE()
	misp := 0
	for i := 0; i < 4000; i++ {
		for pc, taken := range map[uint64]bool{0x1000: true, 0x2000: false} {
			if p.Predict(pc) != taken && i > 500 {
				misp++
			}
			p.Update(pc, taken)
		}
	}
	if rate := float64(misp) / 7000; rate > 0.02 {
		t.Errorf("tage interference rate %v", rate)
	}
}

func TestFoldedHistory(t *testing.T) {
	// Folding is stable and bounded by width.
	for _, width := range []uint{7, 10, 12} {
		v := foldedHistory(0xDEADBEEFCAFE, 44, width)
		if v >= 1<<width {
			t.Errorf("folded value %d exceeds width %d", v, width)
		}
		if foldedHistory(0xDEADBEEFCAFE, 44, width) != v {
			t.Error("folding not deterministic")
		}
	}
	if foldedHistory(0, 44, 10) != 0 {
		t.Error("zero history folds nonzero")
	}
	// Different histories fold differently (usually).
	if foldedHistory(0b1011, 4, 10) == foldedHistory(0b0100, 4, 10) {
		t.Error("distinct short histories collide")
	}
}

func TestSatAdd3Bounds(t *testing.T) {
	c := int8(0)
	for i := 0; i < 10; i++ {
		c = satAdd3(c, true)
	}
	if c != 3 {
		t.Errorf("saturated up to %d, want 3", c)
	}
	for i := 0; i < 20; i++ {
		c = satAdd3(c, false)
	}
	if c != -4 {
		t.Errorf("saturated down to %d, want -4", c)
	}
}

func TestTAGEInPredictorsListStyle(t *testing.T) {
	// TAGE is catalogued and satisfies the Predictor contract used by
	// the machine.
	if !slices.Contains(Predictors(), "tage:11") {
		t.Errorf("Predictors() = %v lacks tage:11", Predictors())
	}
	p := Spec("tage:11").New()
	if _, ok := p.(*TAGE); !ok {
		t.Errorf("tage:11 built %T", p)
	}
	p.Update(0x400000, true)
	_ = p.Predict(0x400000)
}

func BenchmarkTAGEResolve(b *testing.B) {
	p := newTestTAGE()
	rng := xrand.NewPCG32(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint64(0x1000 + (i%64)*4)
		taken := rng.Bool(0.6)
		p.Predict(pc)
		p.Update(pc, taken)
	}
}
