package machine

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/trace"
)

// parallelOptions mirrors how the core package drives a pair run at the
// exact tier (default fractional warmup plus the generator prologue).
func parallelOptions(t *testing.T, cfg Config, m profile.Model, n uint64) (Options, func() (trace.Source, error)) {
	t.Helper()
	gen, err := synth.New(m, cfg.Geometry())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		Instructions:       n,
		WarmupInstructions: gen.Prologue(),
		Workload:           pipeline.Workload{ILP: 2, MLP: m.MLP},
		CalibrateIPC:       m.TargetIPC,
	}
	newSource := func() (trace.Source, error) { return synth.New(m, cfg.Geometry()) }
	return opt, newSource
}

// stripParallel clears the decomposition stats so fallback results can
// be compared bit-for-bit against plain sequential runs.
func stripParallel(r *Result) *Result {
	c := *r
	c.Parallel = nil
	return &c
}

// TestParallelSequentialFallbacks pins the exact-fallback edges: K<=1
// delegates to the sequential kernel bit-identically, and a stream too
// short to hold even two minimum windows does the same no matter how
// many workers were requested (K > windows available collapses all the
// way to one).
func TestParallelSequentialFallbacks(t *testing.T) {
	cfg := HaswellScaled()
	m := testModel()
	for _, tc := range []struct {
		name    string
		n       uint64
		workers int
	}{
		{"k0", 200000, 0},
		{"k1", 200000, 1},
		{"short-stream-k8", minParallelWindow*2 - 1, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt, newSource := parallelOptions(t, cfg, m, tc.n)
			par, err := RunParallel(cfg, newSource, opt, tc.workers)
			if err != nil {
				t.Fatal(err)
			}
			st := par.Parallel
			if st == nil || st.Workers != 1 || st.Requested != tc.workers {
				t.Fatalf("fallback stats = %+v, want Workers=1 Requested=%d", st, tc.workers)
			}
			src, err := newSource()
			if err != nil {
				t.Fatal(err)
			}
			seq, err := Run(cfg, src, opt)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffResults(seq, stripParallel(par)); d != "" {
				t.Errorf("fallback diverges from sequential run:\n%s", d)
			}
		})
	}
}

// TestParallelWorkerClamp: a worker request larger than the number of
// windows the stream can hold falls back to fewer workers (but more
// than one when the stream allows it). With the geometric split the
// last window is the shortest, so a 96Ki stream holds two windows
// (39.5Ki + 56.5Ki), not three uniform 32Ki ones.
func TestParallelWorkerClamp(t *testing.T) {
	cfg := HaswellScaled()
	m := testModel()
	n := uint64(3 * minParallelWindow)
	opt, newSource := parallelOptions(t, cfg, m, n)
	res, err := RunParallel(cfg, newSource, opt, 64)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Parallel
	if st == nil || st.Workers != 2 || st.Requested != 64 {
		t.Fatalf("stats = %+v, want Workers=2 Requested=64", st)
	}
	if len(st.WindowSeconds) != 2 {
		t.Fatalf("WindowSeconds has %d entries, want 2", len(st.WindowSeconds))
	}
}

// TestParallelRejectsSampling: the two stream-tiling knobs do not
// compose; the combination is an explicit error, and the core package
// mirrors this by normalizing IntraPairWorkers away on non-exact tiers.
func TestParallelRejectsSampling(t *testing.T) {
	cfg := HaswellScaled()
	opt, newSource := parallelOptions(t, cfg, testModel(), 1<<20)
	opt.Sampling = DefaultSampling()
	opt.WarmupFraction = -1
	if _, err := RunParallel(cfg, newSource, opt, 4); err == nil || !strings.Contains(err.Error(), "sampling") {
		t.Fatalf("err = %v, want sampling rejection", err)
	}
}

// TestParallelDeterminism: the window split is a pure function of
// (Instructions, workers) and the merge is ordered, so two parallel
// runs of the same pair at the same K produce bit-identical results —
// only the wall-time stats may differ.
func TestParallelDeterminism(t *testing.T) {
	cfg := HaswellScaled()
	m := testModel()
	run := func() *Result {
		opt, newSource := parallelOptions(t, cfg, m, 1<<20)
		res, err := RunParallel(cfg, newSource, opt, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.IPC != b.IPC || !reflect.DeepEqual(a.Counters, b.Counters) || !reflect.DeepEqual(a.Breakdown, b.Breakdown) {
		t.Error("two parallel runs of the same pair at the same K differ")
	}
	if a.Parallel.Workers != b.Parallel.Workers || a.Parallel.Executors != b.Parallel.Executors {
		t.Errorf("decomposition differs: %+v vs %+v", a.Parallel, b.Parallel)
	}
}

// TestParallelStatsShape checks the attached decomposition stats: the
// requested K is honoured when the stream has room, every window
// reports a positive wall time, and the critical path is their max.
func TestParallelStatsShape(t *testing.T) {
	cfg := HaswellScaled()
	m := testModel()
	opt, newSource := parallelOptions(t, cfg, m, 1<<20)
	res, err := RunParallel(cfg, newSource, opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Parallel
	if st == nil {
		t.Fatal("parallel run missing ParallelStats")
	}
	if st.Workers != 4 || st.Requested != 4 || len(st.WindowSeconds) != 4 {
		t.Fatalf("decomposition = %+v, want 4 windows", st)
	}
	if st.Executors < 1 || st.Executors > 4 {
		t.Fatalf("Executors = %d, want in [1, 4]", st.Executors)
	}
	if st.WarmupLen < minParallelWarmup {
		t.Fatalf("WarmupLen = %d, want >= %d", st.WarmupLen, minParallelWarmup)
	}
	worst := 0.0
	for i, s := range st.WindowSeconds {
		if s <= 0 {
			t.Errorf("window %d reported non-positive wall time %v", i, s)
		}
		if s > worst {
			worst = s
		}
	}
	if got := st.CriticalPathSeconds(); got != worst {
		t.Errorf("CriticalPathSeconds = %v, want max window %v", got, worst)
	}
}

// TestParallelEquivalenceK pins the windowed kernel against the
// sequential one at K in {2, 8} on a mid-size stream with loose rails —
// the tight per-family bounds live in TestParallelTolerance. This is
// the test race-kernel runs under -race: it exercises the executor
// pool, the concurrent sources and the merge at both a trivial and a
// saturated worker count while staying fast enough for the race
// detector.
func TestParallelEquivalenceK(t *testing.T) {
	const n = 2 << 20
	cfg := HaswellScaled()
	m := testModel()
	opt, newSource := parallelOptions(t, cfg, m, n)
	src, err := newSource()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Run(cfg, src, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 8} {
		par, err := RunParallel(cfg, newSource, opt, k)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if par.Parallel == nil || par.Parallel.Workers != k {
			t.Fatalf("K=%d: stats = %+v", k, par.Parallel)
		}
		var g stats.Gate
		tol := stats.Tolerance{Rel: 0.05, Abs: 1.5}
		g.Check("IPC", par.IPC, seq.IPC, stats.Tolerance{Rel: 0.05})
		g.Check("L1 miss%", par.Counters.CacheMissPct(1), seq.Counters.CacheMissPct(1), tol)
		g.Check("L2 miss%", par.Counters.CacheMissPct(2), seq.Counters.CacheMissPct(2), stats.Tolerance{Rel: 0.05, Abs: 8})
		g.Check("L3 miss%", par.Counters.CacheMissPct(3), seq.Counters.CacheMissPct(3), stats.Tolerance{Rel: 0.05, Abs: 8})
		g.Check("mispredict%", par.Counters.MispredictPct(), seq.Counters.MispredictPct(), tol)
		if !g.OK() {
			t.Errorf("K=%d:\n%s", k, g.Report())
		}
	}
}

// TestParallelTolerance is the accuracy gate for intra-pair
// parallelism, the parallel twin of TestSampledTolerance: on
// 8Mi-instruction streams every headline metric of a K=8 windowed run
// must land within 2% relative of the sequential exact run, or within
// a per-family absolute floor (percentage points) where a metric's
// event population is too rare for a relative bound to be meaningful.
// The floors are sized from the measured boundary-stitching errors
// recorded in DESIGN.md section 15 with headroom — note they are far
// tighter than the sampled tier's: parallel windows cover the whole
// stream, so there is no extrapolation variance, only boundary-
// stitching bias.
func TestParallelTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second tolerance sweep")
	}
	const n = 8 << 20
	cfg := HaswellScaled()
	cases := []struct {
		name               string
		model              profile.Model
		l1, l2, l3, mispFl float64 // absolute floors, percentage points
	}{
		{"testModel", testModel(), 0.3, 1, 1, 0.75},
		{"505.mcf_r", profile.Model{}, 0.3, 1, 1, 0.5},
		{"525.x264_r", profile.Model{}, 0.3, 1, 1, 0.75},
		{"519.lbm_r", profile.Model{}, 0.3, 1, 1, 0.4},
	}
	for _, app := range profile.CPU2017() {
		for i := range cases {
			if cases[i].name == app.Name {
				cases[i].model = app.Expand(profile.Ref)[0].Model
			}
		}
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.model.TargetIPC == 0 {
				t.Fatalf("model %s not found", tc.name)
			}
			opt, newSource := parallelOptions(t, cfg, tc.model, n)
			src, err := newSource()
			if err != nil {
				t.Fatal(err)
			}
			seq, err := Run(cfg, src, opt)
			if err != nil {
				t.Fatal(err)
			}
			par, err := RunParallel(cfg, newSource, opt, 8)
			if err != nil {
				t.Fatal(err)
			}
			if par.Parallel == nil || par.Parallel.Workers != 8 {
				t.Fatalf("decomposition = %+v, want 8 windows", par.Parallel)
			}
			var g stats.Gate
			tol := func(floor float64) stats.Tolerance {
				return stats.Tolerance{Rel: 0.02, Abs: floor}
			}
			g.Check("IPC", par.IPC, seq.IPC, tol(0))
			g.Check("L1 miss%", par.Counters.CacheMissPct(1), seq.Counters.CacheMissPct(1), tol(tc.l1))
			g.Check("L2 miss%", par.Counters.CacheMissPct(2), seq.Counters.CacheMissPct(2), tol(tc.l2))
			g.Check("L3 miss%", par.Counters.CacheMissPct(3), seq.Counters.CacheMissPct(3), tol(tc.l3))
			g.Check("mispredict%", par.Counters.MispredictPct(), seq.Counters.MispredictPct(), tol(tc.mispFl))
			if !g.OK() {
				t.Error(g.Report())
			}
		})
	}
}

// TestParallelWindowAllocs pins the per-worker arena reuse: once a
// core's batch scratch (the packed-address and branch-index arenas) has
// been sized by its first batch, running further windows through it
// allocates nothing.
func TestParallelWindowAllocs(t *testing.T) {
	cfg := HaswellScaled()
	m := testModel()
	gen, err := synth.New(m, cfg.Geometry())
	if err != nil {
		t.Fatal(err)
	}
	c := newCore(cfg, nil)
	bsrc := trace.AsBatch(gen)
	buf := make([]trace.Uop, DefaultBatchSize)
	const window = 64 << 10
	if _, err := c.runWindow(bsrc, buf, window, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(8, func() {
		if _, err := c.runWindow(bsrc, buf, window, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state window loop allocates %.1f objects per window, want 0", allocs)
	}
}
