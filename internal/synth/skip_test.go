package synth

import (
	"testing"

	"repro/internal/profile"
	"repro/internal/trace"
)

// skipTestModels covers the profile families the skip path must handle:
// the synthetic test model plus real SPEC models spanning memory-bound,
// branchy, FP and streaming behaviour (with and without live deep
// pools, with condensed and rich branch mixes).
func skipTestModels(t *testing.T) map[string]profile.Model {
	t.Helper()
	models := map[string]profile.Model{"testModel": testModel()}
	want := map[string]bool{
		"505.mcf_r": true, "525.x264_r": true, "541.leela_r": true,
		"503.bwaves_r": true, "519.lbm_r": true, "508.namd_r": true,
	}
	for _, app := range profile.CPU2017() {
		if want[app.Name] {
			models[app.Name] = app.Expand(profile.Ref)[0].Model
		}
	}
	if len(models) != len(want)+1 {
		t.Fatalf("missing skip test models: have %d", len(models))
	}
	return models
}

// skipLengths is the skip-length table of the equivalence tests: tiny,
// batch-sized and prologue-crossing lengths, plus both sides of the
// short-skip threshold (skipBufLen) and of the checkpoint threshold
// (minCheckpointSkip).
func skipLengths(g *Generator) []uint64 {
	return []uint64{1, 3, 64, 1000, g.Prologue() / 2, g.Prologue(), 4096, 50000,
		skipBufLen - 1, skipBufLen, skipBufLen + 1,
		minCheckpointSkip - 1, minCheckpointSkip, minCheckpointSkip + 1}
}

// TestSkipEquivalence is the skip-path correctness gate: interleaving
// Skip calls with Next must leave the generator in exactly the state n
// discarded Next calls would — every subsequent record bit-identical,
// including across the prologue/steady-state boundary — and the
// footprint high-water mark must match too.
func TestSkipEquivalence(t *testing.T) {
	for name, m := range skipTestModels(t) {
		t.Run(name, func(t *testing.T) {
			ref, err := New(m, testGeometry())
			if err != nil {
				t.Fatal(err)
			}
			got, err := New(m, testGeometry())
			if err != nil {
				t.Fatal(err)
			}
			skips := skipLengths(ref)
			var ur, ug trace.Uop
			for si, n := range skips {
				if n == 0 {
					continue
				}
				for i := uint64(0); i < n; i++ {
					ref.Next(&ur)
				}
				if sk := got.Skip(n); sk != n {
					t.Fatalf("skip %d: Skip(%d) = %d", si, n, sk)
				}
				// A run of records after each skip catches state divergence
				// (RNG stream, pool cursors, burst counters, call stack).
				for i := 0; i < 2000; i++ {
					ref.Next(&ur)
					got.Next(&ug)
					if ur != ug {
						t.Fatalf("skip %d (n=%d): record %d diverged:\nref %+v\ngot %+v",
							si, n, i, ur, ug)
					}
				}
				if ref.Footprint() != got.Footprint() {
					t.Fatalf("skip %d (n=%d): footprint %d != %d",
						si, n, ref.Footprint(), got.Footprint())
				}
			}
		})
	}
}

// TestSkipWarmEquivalence checks the warming skip path on both counts:
// the observer must see exactly the branch records the emitting path
// would have produced over the skipped stretch (bit-identical, in
// order), and the generator must land in exactly the state Skip would
// have left — subsequent records identical.
func TestSkipWarmEquivalence(t *testing.T) {
	for name, m := range skipTestModels(t) {
		t.Run(name, func(t *testing.T) {
			ref, err := New(m, testGeometry())
			if err != nil {
				t.Fatal(err)
			}
			got, err := New(m, testGeometry())
			if err != nil {
				t.Fatal(err)
			}
			skips := skipLengths(ref)
			var ur, ug trace.Uop
			for si, n := range skips {
				if n == 0 {
					continue
				}
				var want []trace.Uop
				for i := uint64(0); i < n; i++ {
					ref.Next(&ur)
					if ur.Kind == trace.KindBranch {
						want = append(want, ur)
					}
				}
				var seen []trace.Uop
				if sk := got.SkipWarm(n, func(u *trace.Uop) { seen = append(seen, *u) }); sk != n {
					t.Fatalf("skip %d: SkipWarm(%d) = %d", si, n, sk)
				}
				if len(seen) != len(want) {
					t.Fatalf("skip %d (n=%d): observed %d branch records, want %d",
						si, n, len(seen), len(want))
				}
				for i := range want {
					if seen[i] != want[i] {
						t.Fatalf("skip %d (n=%d): branch record %d diverged:\nref %+v\ngot %+v",
							si, n, i, want[i], seen[i])
					}
				}
				for i := 0; i < 2000; i++ {
					ref.Next(&ur)
					got.Next(&ug)
					if ur != ug {
						t.Fatalf("skip %d (n=%d): record %d diverged after warm skip:\nref %+v\ngot %+v",
							si, n, i, ur, ug)
					}
				}
				if ref.Footprint() != got.Footprint() {
					t.Fatalf("skip %d (n=%d): footprint %d != %d",
						si, n, ref.Footprint(), got.Footprint())
				}
			}
		})
	}
}

// TestSkipFromBatchPath checks the other consumption pattern the machine
// uses: NextBatch windows separated by skips must continue the exact
// stream the pure batch consumer sees.
func TestSkipFromBatchPath(t *testing.T) {
	m := testModel()
	ref, _ := New(m, testGeometry())
	got, _ := New(m, testGeometry())
	refBuf := make([]trace.Uop, 1024)
	gotBuf := make([]trace.Uop, 1024)
	pos := 0
	for round := 0; round < 20; round++ {
		skip := uint64(777 * (round + 1) % 5000)
		for left := skip; left > 0; {
			want := left
			if want > uint64(len(refBuf)) {
				want = uint64(len(refBuf))
			}
			ref.NextBatch(refBuf[:want])
			left -= want
		}
		got.Skip(skip)
		ref.NextBatch(refBuf)
		got.NextBatch(gotBuf)
		for i := range refBuf {
			if refBuf[i] != gotBuf[i] {
				t.Fatalf("round %d: record %d (stream pos ~%d) diverged:\nref %+v\ngot %+v",
					round, i, pos+i, refBuf[i], gotBuf[i])
			}
		}
		pos += int(skip) + len(refBuf)
	}
}

// BenchmarkSkip measures the fast-forward rate — the quantity that
// bounds the sampled kernel's speedup ceiling.
func BenchmarkSkip(b *testing.B) {
	g, err := New(testModel(), testGeometry())
	if err != nil {
		b.Fatal(err)
	}
	g.Skip(g.Prologue())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Skip(1 << 16)
	}
	b.ReportMetric(float64(b.N)*float64(1<<16)/b.Elapsed().Seconds(), "uops/s")
}
