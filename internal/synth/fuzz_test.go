package synth

import (
	"testing"

	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// FuzzSynthProfile drives New with arbitrary — including malformed —
// model parameters. The contract under fuzz: New either returns an error
// or returns a generator that produces a well-formed stream without
// panicking, and whose per-uop, batched and skipping paths are
// bit-identical.
func FuzzSynthProfile(f *testing.F) {
	// Seeds: a realistic integer profile, a tiny-footprint edge case, a
	// huge-parameter case near the validation bounds, and a malformed one.
	f.Add(25.0, 9.0, 16.0, 0.76, 0.07, 3.0, 5.0, 40.0, 15.0, 512.0, 2.0, 400.0, 3000, uint64(42))
	f.Add(1.0, 1.0, 1.0, 0.9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.001, 1.0, 0.1, 1, uint64(1))
	f.Add(40.0, 20.0, 40.0, 0.5, 0.2, 50.0, 99.0, 99.0, 99.0, 1e6, 10.0, 1e6, 1<<20, uint64(7))
	f.Add(-5.0, 200.0, 1e308, 2.0, -1.0, -3.0, 101.0, 40.0, 15.0, 0.0, 2.0, -400.0, -1, uint64(9))

	f.Fuzz(func(t *testing.T, loadPct, storePct, branchPct, cond, jump, misp, l1, l2, l3, rss, mlp, codeKiB float64, sites int, seed uint64) {
		m := profile.Model{
			InstrBillions: 1,
			TargetIPC:     1,
			LoadPct:       loadPct,
			StorePct:      storePct,
			BranchPct:     branchPct,
			Mix: profile.BranchMix{
				Cond: cond, Jump: jump,
				Call: 0.05, IndirectJump: 0.02, Return: 0.05,
			},
			MispredictPct: misp,
			L1MissPct:     l1,
			L2MissPct:     l2,
			L3MissPct:     l3,
			RSSMiB:        rss,
			VSZMiB:        rss * 1.2,
			MLP:           mlp,
			CodeKiB:       codeKiB,
			BranchSites:   sites,
			Threads:       1,
			Seed:          seed,
		}
		geo := Geometry{L1Lines: 512, L2Lines: 4096, L3Lines: 32768}
		gen, err := New(m, geo)
		if err != nil {
			return // rejected cleanly, which is the point
		}
		twin, err := New(m, geo)
		if err != nil {
			t.Fatalf("New succeeded then failed for the same model: %v", err)
		}

		const n = 512
		var u trace.Uop
		single := make([]trace.Uop, n)
		for i := 0; i < n; i++ {
			if !gen.Next(&u) {
				t.Fatalf("generator ended at uop %d", i)
			}
			single[i] = u
			if u.Kind > trace.KindBranch {
				t.Fatalf("uop %d: invalid kind %d", i, u.Kind)
			}
			if u.Kind == trace.KindBranch {
				if u.Branch == trace.BranchNone || int(u.Branch) > trace.NumBranchClasses {
					t.Fatalf("uop %d: branch uop with class %d", i, u.Branch)
				}
			} else if u.Branch != trace.BranchNone {
				t.Fatalf("uop %d: non-branch uop with class %d", i, u.Branch)
			}
		}

		// The batched path must replay the identical stream, whatever the
		// request slicing.
		batched := make([]trace.Uop, 0, n)
		buf := make([]trace.Uop, 113) // prime, misaligned with everything
		for len(batched) < n {
			want := n - len(batched)
			if want > len(buf) {
				want = len(buf)
			}
			got := twin.NextBatch(buf[:want])
			if got == 0 {
				t.Fatalf("batched generator ended at uop %d", len(batched))
			}
			batched = append(batched, buf[:got]...)
		}
		for i := range single {
			if single[i] != batched[i] {
				t.Fatalf("uop %d: per-uop %+v != batched %+v", i, single[i], batched[i])
			}
		}

		// The skip interpreter must land exactly where Next does and
		// observe exactly Next's branch records. A third twin reaches a
		// run of checkpoints alternately through Skip and SkipWarm: the
		// middle of the prologue, then a skip across its end, then each
		// of both sides of skipBufLen and two seed-drawn lengths, once
		// cold and once warm, with a short Next window after each.
		ref, _ := New(m, geo)
		skipper, _ := New(m, geo)
		pro := ref.Prologue()
		r := xrand.NewPCG32(seed)
		drawn := func() uint64 { return 1 + uint64(r.Uint32n(2*skipBufLen)) }
		skips := []uint64{pro / 2, pro - pro/2 + drawn()}
		for _, k := range []uint64{skipBufLen - 1, skipBufLen, skipBufLen + 1, drawn(), drawn()} {
			skips = append(skips, k, k)
		}
		var v trace.Uop
		for si, k := range skips {
			var want, seen []trace.Uop
			for i := uint64(0); i < k; i++ {
				ref.Next(&u)
				if u.Kind == trace.KindBranch {
					want = append(want, u)
				}
			}
			if si%2 == 0 {
				skipper.Skip(k)
			} else {
				skipper.SkipWarm(k, func(b *trace.Uop) { seen = append(seen, *b) })
				if len(seen) != len(want) {
					t.Fatalf("skip %d (n=%d): observed %d branch records, want %d", si, k, len(seen), len(want))
				}
				for i := range want {
					if seen[i] != want[i] {
						t.Fatalf("skip %d (n=%d): branch record %d: observed %+v, Next %+v", si, k, i, seen[i], want[i])
					}
				}
			}
			for i := 0; i < 16; i++ {
				ref.Next(&u)
				skipper.Next(&v)
				if u != v {
					t.Fatalf("skip %d (n=%d): record %d after the skip: %+v, Next %+v", si, k, i, v, u)
				}
			}
			if ref.Footprint() != skipper.Footprint() {
				t.Fatalf("skip %d (n=%d): footprint %d, Next %d", si, k, skipper.Footprint(), ref.Footprint())
			}
		}
	})
}
