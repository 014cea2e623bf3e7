package branch

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/xrand"
)

func TestCounter2Saturation(t *testing.T) {
	c := counter2(0)
	for i := 0; i < 10; i++ {
		c = c.update(true)
	}
	if c != 3 {
		t.Errorf("counter after many takens = %d, want 3", c)
	}
	for i := 0; i < 10; i++ {
		c = c.update(false)
	}
	if c != 0 {
		t.Errorf("counter after many not-takens = %d, want 0", c)
	}
}

// trainAndMeasure feeds a deterministic outcome function for one branch PC
// and returns the mispredict rate over the last half (after warmup).
func trainAndMeasure(p Predictor, outcome func(i int) bool, n int) float64 {
	const pc = 0x400100
	misp := 0
	for i := 0; i < n; i++ {
		taken := outcome(i)
		if p.Predict(pc) != taken && i >= n/2 {
			misp++
		}
		p.Update(pc, taken)
	}
	return float64(misp) / float64(n/2)
}

func TestAllPredictorsLearnAlwaysTaken(t *testing.T) {
	for _, s := range Predictors() {
		rate := trainAndMeasure(s.New(), func(int) bool { return true }, 2000)
		if rate > 0.01 {
			t.Errorf("%s: mispredict rate %v on always-taken, want ~0", s, rate)
		}
	}
}

func TestDynamicPredictorsLearnAlwaysNotTaken(t *testing.T) {
	for _, s := range Predictors() {
		if s == "static-taken" {
			continue
		}
		rate := trainAndMeasure(s.New(), func(int) bool { return false }, 2000)
		if rate > 0.01 {
			t.Errorf("%s: mispredict rate %v on never-taken, want ~0", s, rate)
		}
	}
}

func TestHistoryPredictorsLearnAlternating(t *testing.T) {
	// A strict T/NT alternation defeats bimodal but is perfectly
	// predictable with history.
	for _, p := range []Predictor{
		NewGshare(14, 12),
		NewTwoLevelLocal(10, 12),
		NewTournament(13),
		NewPerceptron(10, 24),
	} {
		rate := trainAndMeasure(p, func(i int) bool { return i%2 == 0 }, 4000)
		if rate > 0.02 {
			t.Errorf("%T: mispredict rate %v on alternating pattern, want ~0", p, rate)
		}
	}
}

func TestBimodalCannotLearnAlternating(t *testing.T) {
	rate := trainAndMeasure(NewBimodal(14), func(i int) bool { return i%2 == 0 }, 4000)
	if rate < 0.4 {
		t.Errorf("bimodal mispredict rate %v on alternating pattern, expected high", rate)
	}
}

func TestGshareLearnsPeriodicPattern(t *testing.T) {
	pattern := []bool{true, true, false, true, false, false, true, false}
	rate := trainAndMeasure(NewGshare(14, 12), func(i int) bool { return pattern[i%len(pattern)] }, 8000)
	if rate > 0.05 {
		t.Errorf("gshare mispredict rate %v on period-8 pattern, want ~0", rate)
	}
}

func TestPredictorsOnRandomStream(t *testing.T) {
	// Unpredictable outcomes should mispredict roughly half the time.
	rng := xrand.NewPCG32(5)
	outcomes := make([]bool, 4000)
	for i := range outcomes {
		outcomes[i] = rng.Bool(0.5)
	}
	for _, p := range []Predictor{NewBimodal(14), NewGshare(14, 12)} {
		rate := trainAndMeasure(p, func(i int) bool { return outcomes[i] }, len(outcomes))
		if rate < 0.35 || rate > 0.65 {
			t.Errorf("%T: mispredict rate %v on random stream, want ~0.5", p, rate)
		}
	}
}

func TestPredictorsIndependentPCs(t *testing.T) {
	// Two branches with opposite biases must not destructively interfere
	// in a bimodal table.
	p := NewBimodal(14)
	misp := 0
	for i := 0; i < 2000; i++ {
		for pc, taken := range map[uint64]bool{0x1000: true, 0x2000: false} {
			if p.Predict(pc) != taken && i > 100 {
				misp++
			}
			p.Update(pc, taken)
		}
	}
	if misp > 0 {
		t.Errorf("bimodal interference: %d mispredicts on two biased branches", misp)
	}
}

func TestBTB(t *testing.T) {
	b := NewBTB(8)
	if b.Hit(0x1000, 0x2000) {
		t.Error("empty BTB hit")
	}
	b.Update(0x1000, 0x2000)
	if !b.Hit(0x1000, 0x2000) {
		t.Error("BTB missed installed entry")
	}
	if b.Hit(0x1000, 0x3000) {
		t.Error("BTB hit with wrong target")
	}
	// Aliasing entry evicts.
	alias := uint64(0x1000 + (1 << (8 + 2)))
	b.Update(alias, 0x4000)
	if b.Hit(0x1000, 0x2000) {
		t.Error("BTB entry survived aliasing update")
	}
}

func TestRASPairing(t *testing.T) {
	r := NewRAS(16)
	r.Push(100)
	r.Push(200)
	if got := r.Pop(); got != 200 {
		t.Errorf("Pop = %d, want 200", got)
	}
	if got := r.Pop(); got != 100 {
		t.Errorf("Pop = %d, want 100", got)
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(4)
	for i := 1; i <= 6; i++ {
		r.Push(uint64(i * 10))
	}
	// Depth 4: pushes 30,40,50,60 survive.
	for want := 60; want >= 30; want -= 10 {
		if got := r.Pop(); got != uint64(want) {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
}

func TestUnitConditionalFlow(t *testing.T) {
	u := NewUnit(NewGshare(14, 12), 12, 16)
	up := trace.Uop{PC: 0x5000, Kind: trace.KindBranch, Branch: trace.BranchConditional, Taken: true, Target: 0x5100}
	// First resolve may mispredict (cold); after training it must not.
	for i := 0; i < 100; i++ {
		u.Resolve(&up)
	}
	if u.Resolve(&up) {
		t.Error("trained conditional branch still mispredicting")
	}
	st := u.Stats()
	ex, _ := st.Total()
	if ex != 101 {
		t.Errorf("executed = %d, want 101", ex)
	}
}

func TestUnitCallReturnPairing(t *testing.T) {
	u := NewUnit(NewBimodal(10), 12, 16)
	call := trace.Uop{PC: 0x6000, Kind: trace.KindBranch, Branch: trace.BranchDirectCall, Taken: true, Target: 0x7000}
	ret := trace.Uop{PC: 0x7040, Kind: trace.KindBranch, Branch: trace.BranchReturn, Taken: true, Target: 0x6004}
	for i := 0; i < 50; i++ {
		if u.Resolve(&call) {
			t.Fatal("direct call mispredicted")
		}
		if u.Resolve(&ret) {
			t.Fatal("paired return mispredicted")
		}
	}
}

func TestUnitReturnMismatchCounts(t *testing.T) {
	u := NewUnit(NewBimodal(10), 12, 16)
	ret := trace.Uop{PC: 0x7040, Kind: trace.KindBranch, Branch: trace.BranchReturn, Taken: true, Target: 0x1234}
	if !u.Resolve(&ret) {
		t.Error("return with empty RAS predicted correctly?")
	}
	st := u.Stats()
	if st.Mispredicted[trace.BranchReturn] != 1 {
		t.Errorf("return mispredicts = %d, want 1", st.Mispredicted[trace.BranchReturn])
	}
}

func TestUnitIndirectJumpMonomorphic(t *testing.T) {
	u := NewUnit(NewBimodal(10), 12, 16)
	up := trace.Uop{PC: 0x8000, Kind: trace.KindBranch, Branch: trace.BranchIndirectJump, Taken: true, Target: 0x9000}
	u.Resolve(&up) // cold miss trains BTB
	for i := 0; i < 20; i++ {
		if u.Resolve(&up) {
			t.Fatal("monomorphic indirect jump mispredicted after training")
		}
	}
}

func TestUnitIndirectJumpPolymorphic(t *testing.T) {
	u := NewUnit(NewBimodal(10), 12, 16)
	misp := 0
	for i := 0; i < 100; i++ {
		up := trace.Uop{PC: 0x8000, Kind: trace.KindBranch, Branch: trace.BranchIndirectJump, Taken: true,
			Target: uint64(0x9000 + (i%2)*0x100)}
		if u.Resolve(&up) {
			misp++
		}
	}
	if misp < 90 {
		t.Errorf("alternating indirect target mispredicts = %d/100, want ~100", misp)
	}
}

func TestStatsMispredictRate(t *testing.T) {
	var s Stats
	s.Executed[trace.BranchConditional] = 80
	s.Executed[trace.BranchReturn] = 20
	s.Mispredicted[trace.BranchConditional] = 5
	if got := s.MispredictRate(); got != 0.05 {
		t.Errorf("rate = %v, want 0.05", got)
	}
	var empty Stats
	if empty.MispredictRate() != 0 {
		t.Error("empty stats rate != 0")
	}
}

func BenchmarkGshareResolve(b *testing.B) {
	u := NewUnit(NewGshare(14, 12), 12, 16)
	rng := xrand.NewPCG32(3)
	ups := make([]trace.Uop, 1024)
	for i := range ups {
		ups[i] = trace.Uop{
			PC:     uint64(0x1000 + (i%64)*4),
			Kind:   trace.KindBranch,
			Branch: trace.BranchConditional,
			Taken:  rng.Bool(0.6),
			Target: 0x2000,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Resolve(&ups[i%len(ups)])
	}
}

func BenchmarkPerceptronResolve(b *testing.B) {
	u := NewUnit(NewPerceptron(10, 24), 12, 16)
	up := trace.Uop{PC: 0x1000, Kind: trace.KindBranch, Branch: trace.BranchConditional, Taken: true, Target: 0x2000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		up.Taken = i%3 != 0
		u.Resolve(&up)
	}
}
