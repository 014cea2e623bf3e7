package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/profile"
)

// fmtPairKey is the pair part of a content key as it was first
// written, through fmt: the spelling every stored key was hashed from.
func fmtPairKey(pair *profile.Pair) string {
	m := &pair.Model
	return fmt.Sprintf("|%s|%d|%s|", pair.App.Name, pair.Size, pair.Input) +
		fmt.Sprintf("%v|%v|%v|%v|%v|%v|%v|%v|%v|%v|%v|%v|%v|%v|%d|%d|%d",
			m.InstrBillions, m.TargetIPC, m.LoadPct, m.StorePct, m.BranchPct,
			m.Mix, m.MispredictPct, m.L1MissPct, m.L2MissPct, m.L3MissPct,
			m.RSSMiB, m.VSZMiB, m.MLP, m.CodeKiB, m.BranchSites, m.Threads,
			m.Seed)
}

// TestPairKeyMatchesFmt: appendPairKey writes exactly the bytes the fmt
// spelling wrote, for every built-in pair at every size, and for floats
// whose %v form takes an exponent, a sign or a special value.
func TestPairKeyMatchesFmt(t *testing.T) {
	var pairs []profile.Pair
	for _, apps := range [][]*profile.Profile{profile.CPU2017(), profile.CPU2006()} {
		for _, size := range []profile.InputSize{profile.Test, profile.Train, profile.Ref} {
			pairs = append(pairs, profile.ExpandSuite(apps, size)...)
		}
	}
	if len(pairs) < 250 {
		t.Fatalf("only %d built-in pairs", len(pairs))
	}
	odd := pairs[0]
	odd.Input = "in|1"
	odd.Model.InstrBillions = 1e21
	odd.Model.TargetIPC = 1e-7
	odd.Model.LoadPct = math.Copysign(0, -1)
	odd.Model.Mix.Cond = math.Inf(1)
	odd.Model.Mix.Return = math.Inf(-1)
	odd.Model.MLP = math.NaN()
	odd.Model.CodeKiB = 123456789.125
	odd.Model.BranchSites = -3
	odd.Model.Seed = math.MaxUint64
	pairs = append(pairs, odd)
	for i := range pairs {
		p := &pairs[i]
		if got, want := string(appendPairKey(nil, p)), fmtPairKey(p); got != want {
			t.Fatalf("%s/%s: appendPairKey wrote\n%s\nfmt wrote\n%s", p.Size, p.Name(), got, want)
		}
	}
}
