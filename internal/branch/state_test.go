package branch

import (
	"bytes"
	"testing"

	"repro/internal/trace"
	"repro/internal/xrand"
)

// randomBranches returns n branch records over a few dozen sites, so
// predictor entries are trained, re-trained and aliased.
func randomBranches(rng *xrand.PCG32, n int) []trace.Uop {
	out := make([]trace.Uop, n)
	for i := range out {
		site := uint64(rng.Intn(48))
		out[i] = trace.Uop{
			Kind:   trace.KindBranch,
			PC:     0x400000 + site*0x1c4,
			Branch: trace.BranchClass(1 + rng.Intn(trace.NumBranchClasses)),
			Target: 0x500000 + uint64(rng.Intn(6))*0x40,
			Taken:  rng.Bool(0.6),
		}
		if out[i].Branch != trace.BranchConditional {
			out[i].Taken = true
		}
	}
	return out
}

// FuzzUnitSnapshot trains a unit of one catalogue predictor on random
// branch records, snapshots it and restores the snapshot into a fresh
// unit and into one trained on other records. Over a further random
// stream all three must then predict alike, and end in the same state
// and statistics.
func FuzzUnitSnapshot(f *testing.F) {
	for i := range Predictors() {
		f.Add(uint8(i), uint64(i+1), uint16(3000))
	}
	f.Add(uint8(4), uint64(99), uint16(0))
	f.Fuzz(func(t *testing.T, which uint8, seed uint64, train uint16) {
		specs := Predictors()
		spec := specs[int(which)%len(specs)]
		unit := func() *Unit { return NewUnit(spec.New(), 6, 8) }
		rng := xrand.NewPCG32(seed)
		orig := unit()
		for _, u := range randomBranches(rng, int(train)%8192) {
			orig.Resolve(&u)
		}
		snap := orig.Snapshot()

		fresh, dirty := unit(), unit()
		for _, u := range randomBranches(xrand.NewPCG32(^seed), 2000) {
			dirty.Resolve(&u)
		}
		for _, r := range []*Unit{fresh, dirty} {
			r.Restore(snap)
			if got := r.Snapshot(); !bytes.Equal(got, snap) {
				t.Fatalf("%s: a restored unit snapshots to %d bytes, want the %d it was restored from", spec, len(got), len(snap))
			}
		}
		orig.ResetStats()
		dirty.ResetStats()
		for i, u := range randomBranches(rng, 4000) {
			want := orig.Resolve(&u)
			if fresh.Resolve(&u) != want || dirty.Resolve(&u) != want {
				t.Fatalf("%s: restored units disagree with the original at record %d", spec, i)
			}
		}
		end := orig.Snapshot()
		for _, r := range []*Unit{fresh, dirty} {
			if !bytes.Equal(r.Snapshot(), end) || r.Stats() != orig.Stats() {
				t.Fatalf("%s: restored units end in another state than the original", spec)
			}
		}
	})
}

// TestSnapshotSparse checks that a snapshot carries trained entries
// only: a fresh unit costs a byte per table plus its registers, and a
// briefly trained one far less than its dense tables.
func TestSnapshotSparse(t *testing.T) {
	for _, spec := range Predictors() {
		u := NewUnit(spec.New(), 12, 16)
		if n := len(u.Snapshot()); n > 32 {
			t.Errorf("%s: a fresh unit snapshots to %d bytes", spec, n)
		}
		for _, b := range randomBranches(xrand.NewPCG32(7), 500) {
			u.Resolve(&b)
		}
		if n := len(u.Snapshot()); n > 8<<10 {
			t.Errorf("%s: 500 branches snapshot to %d bytes", spec, n)
		}
	}
}
