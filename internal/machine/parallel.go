package machine

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// This file implements intra-pair parallel simulation: one uop stream's
// measured window is split into contiguous sub-windows simulated
// concurrently on independent cores. Each worker runs the driver's
// warm-state pass, then bridges the stretch up to its window (the
// fractional warmup tail plus all preceding windows) as one long
// sampling gap and re-warms before counting (runParallelWindow).
// Per-window counters merge in window order. Campaign-level
// parallelism maxes out at the number of pairs; this is the knob that
// makes a single large pair scale.
//
// Parallel windowing is an estimate of the sequential run, not a
// bit-identical reordering of it: a window's cache image is the aged
// warm-pass image plus a re-warm, not the exact cumulative state the
// sequential kernel would carry across the boundary. The tolerance
// tests bound the error the same way the sampling tests do, and K>1
// results are keyed separately from exact sequential ones in every
// cache tier (core's campaign key appends the knob). K<=1 delegates to
// the sequential kernel and stays bit-identical.

const (
	// minParallelWindow is the smallest counted window worth giving a
	// worker: below it the warm prefix dominates the window and the
	// split costs accuracy without buying wall-clock. Requests whose
	// windows would shrink under it fall back to fewer workers, down to
	// the exact sequential kernel.
	minParallelWindow = 32768
	// minParallelWarmup floors each window's uncounted simulated warm
	// prefix at the sampling default's re-warm window.
	minParallelWarmup = 8192
	// parallelSettle is the settle window each worker simulates after
	// the warmup head, mirroring the sampled loop's settle: it realigns
	// small-horizon state (L1, predictor hot entries) with real stream
	// behaviour after the prologue's branch-free sweep, and seeds the
	// fill-rate estimates the gap aging and re-warm sizing run on.
	parallelSettle = 2 * minParallelWarmup
	// parallelSkipRatio is the assumed cost of fast-forwarding one
	// record relative to simulating one, used to balance the window
	// split: a later window pays to skip everything before it, so
	// windows shrink geometrically by (1 - ratio) per worker, keeping
	// skip(start_i) + simulate(window_i) constant across workers and the
	// critical path flat. A fixed model constant — not measured at run
	// time — so the split stays a pure function of (Instructions,
	// Workers) and results stay bit-reproducible; a mismatch with the
	// real ratio on a given host costs balance, never correctness.
	parallelSkipRatio = 0.3
)

// ParallelStats records how a parallel run was decomposed and how long
// each window took, attached as Result.Parallel.
type ParallelStats struct {
	// Requested is the worker count the caller asked for; Workers is the
	// count actually used after the minimum-window fallback. Workers==1
	// means the run fell back to the exact sequential kernel.
	Requested, Workers int
	// Executors is how many windows ran concurrently: min(Workers,
	// GOMAXPROCS). The window split — and therefore every result bit —
	// depends only on Workers; executors are pure scheduling.
	Executors int
	// WarmupLen is the warm-state pass every worker simulates before its
	// gap: the caller's warmup head (Options.WarmupInstructions,
	// normally the generator prologue) plus the settle window, clamped
	// to the caller's total warmup. Every window additionally simulates
	// a re-warm after its aged gap.
	WarmupLen uint64
	// WindowSeconds is each window's wall time (skip + warm + counted
	// detail), in window order.
	WindowSeconds []float64
}

// CriticalPathSeconds returns the slowest window's wall time — the
// run's wall clock on a machine with at least Workers idle cores, and
// the quantity BenchmarkKernelParallel gates. (On fewer cores windows
// queue on the executor pool and total wall clock approaches the sum
// instead.)
func (st *ParallelStats) CriticalPathSeconds() float64 {
	worst := 0.0
	for _, s := range st.WindowSeconds {
		if s > worst {
			worst = s
		}
	}
	return worst
}

// parallelWindowLens splits total instructions into k contiguous
// windows of geometrically decreasing length: window i is (1 -
// parallelSkipRatio) times window i-1, which equalizes each worker's
// skip(start_i) + simulate(window_i) cost and flattens the critical
// path. Window 0 absorbs the integer rounding remainder (it is the
// largest, so the relative distortion is smallest). Pure function of
// (total, k) — the split never depends on anything measured.
func parallelWindowLens(total uint64, k int) []uint64 {
	lens := make([]uint64, k)
	decay := 1 - parallelSkipRatio
	norm := parallelSkipRatio / (1 - math.Pow(decay, float64(k)))
	rest := total
	for i := k - 1; i >= 1; i-- {
		lens[i] = uint64(float64(total) * norm * math.Pow(decay, float64(i)))
		rest -= lens[i]
	}
	lens[0] = rest
	return lens
}

// parallelWindow is one worker's assignment: the shared warm-state pass
// (warmup head then settle window, identical for every window), the gap
// to the window's start, and the counted window. The worker itself
// partitions the gap into cold skip, warm-skip tail and simulated
// re-warm, because the re-warm is sized from fill rates it measures
// during its settle window (deterministic — the pass is the same stream
// prefix every time, so the partition is too).
type parallelWindow struct {
	warmPro, warmSettle, gap, counted uint64
}

// parallelResult is one finished window: its counts, stage timings,
// wall time, and the first error if any.
type parallelResult struct {
	counts  Counts
	stages  stageTimes
	seconds float64
	err     error
}

// RunParallel simulates opt.Instructions of a uop stream with the
// measured window split across `workers` concurrently simulated
// contiguous sub-windows. Because every window needs an independently
// positioned stream, the caller supplies a source factory instead of a
// source; each invocation must yield a fresh source producing the
// identical record sequence (same generator seed), which is what makes
// the merged result bit-reproducible for fixed (seed, workers).
//
// Every worker simulates the caller's warmup head (WarmupInstructions,
// normally the generator prologue) plus a settle window — redundantly,
// but concurrently, so it costs one pass of wall clock rather than K —
// and bridges from that warm-state image to its own window with the
// sampled loop's frozen-cache gap procedure; the fractional warmup tail
// (WarmupFraction) is part of the first gap, not simulated. Sampling
// itself does not compose — both knobs re-tile the measured stream —
// and is rejected.
func RunParallel(cfg Config, newSource func() (trace.Source, error), opt Options, workers int) (*Result, error) {
	// Sampling and windowing both re-tile the measured stream.
	if err := checkRun(cfg, opt, "parallel windowed simulation"); err != nil {
		return nil, err
	}
	if newSource == nil {
		return nil, fmt.Errorf("machine: RunParallel needs a source factory")
	}

	total := opt.Instructions
	k := workers
	if maxK := int(total / minParallelWindow); k > maxK {
		// K > windows available: fall back to as many workers as
		// minimum-length windows fit, which for short streams is the
		// exact sequential kernel.
		k = maxK
	}
	// The geometric split makes the last window the shortest; shed
	// workers until it clears the minimum-window floor.
	for k > 1 && parallelWindowLens(total, k)[k-1] < minParallelWindow {
		k--
	}
	if k <= 1 {
		src, err := newSource()
		if err != nil {
			return nil, err
		}
		res, err := Run(cfg, src, opt)
		if err != nil {
			return nil, err
		}
		res.Parallel = &ParallelStats{Requested: workers, Workers: 1, Executors: 1}
		return res, nil
	}

	// Contiguous geometric split of the measured region [W, W+total):
	// the windows tile the region exactly and the split depends only on
	// (total, k). The warm-state pass is the warmup head plus settle,
	// clamped to the caller's total warmup so it never overlaps the
	// measured region; whatever warmup remains after it (the fractional
	// tail) is the head of every window's gap.
	warmLen := warmupLength(opt)
	pro := min(opt.WarmupInstructions, warmLen)
	settle := min(parallelSettle, warmLen-pro)
	lens := parallelWindowLens(total, k)
	jobs := make([]parallelWindow, k)
	start := uint64(0)
	for i := range jobs {
		// Each window's gap is the stream between the end of the
		// warm-state pass and the window's start.
		jobs[i] = parallelWindow{
			warmPro:    pro,
			warmSettle: settle,
			gap:        warmLen - pro - settle + start,
			counted:    lens[i],
		}
		start += lens[i]
	}

	// Executor pool: window jobs are independent, so running them on
	// min(k, GOMAXPROCS) executors changes scheduling only, never a
	// result bit. Each executor owns one feed ring reused across all
	// the windows it runs (the per-worker arena; the alloc-regression
	// test pins the steady-state window loop at zero allocations).
	execs := min(runtime.GOMAXPROCS(0), k)
	results := make([]parallelResult, k)
	var next atomic.Int64
	var wg sync.WaitGroup
	for e := 0; e < execs; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ring := make([]trace.Uop, ringLen(opt, 1))
			for {
				i := int(next.Add(1)) - 1
				if i >= k {
					return
				}
				results[i] = runParallelWindow(cfg, newSource, opt, jobs[i], ring)
			}
		}()
	}
	wg.Wait()

	// Deterministic merge in window order; footprint high-water marks
	// merge as the maximum (windows of a cyclic synthetic stream touch
	// near-identical working sets, and RSS is a high-water mark, not a
	// rate).
	var agg Counts
	var stages stageTimes
	st := &ParallelStats{
		Requested:     workers,
		Workers:       k,
		Executors:     execs,
		WarmupLen:     pro + settle,
		WindowSeconds: make([]float64, k),
	}
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return nil, fmt.Errorf("machine: parallel window %d/%d: %w", i, k, r.err)
		}
		agg.add(r.counts)
		stages.merge(&r.stages)
		st.WindowSeconds[i] = r.seconds
		metWindowSeconds["parallel"].Observe(r.seconds)
	}
	metPairWindows["parallel"].Add(uint64(k))
	stages.record(opt.Span)
	opt.Span.SetAttr("windows", k)

	res, err := DeriveResult(cfg, opt, agg)
	if err != nil {
		return nil, err
	}
	res.Parallel = st
	return res, nil
}

// runParallelWindow simulates one window on a fresh core and source.
// The worker first simulates the warm-state pass — warmup head, a stats
// reset, then the settle window, identical for every window, measuring
// per-cache fill rates — then bridges its gap the way the sampled loop
// does (aging, cold skip, warm-skipped branch tail) and simulates a
// re-warm window sized to rebuild what aging evicted. Counters reset,
// then the detail window is counted.
func runParallelWindow(cfg Config, newSource func() (trace.Source, error), opt Options, job parallelWindow, ring []trace.Uop) parallelResult {
	start := time.Now()
	src, err := newSource()
	if err != nil {
		return parallelResult{err: err}
	}
	d := newDriver(cfg, opt, []trace.Source{src}, false, ring)
	defer d.close()
	err = d.parallelWindow(job)
	return parallelResult{counts: d.cores[0].counts(), stages: d.stages, seconds: time.Since(start).Seconds(), err: err}
}

// parallelWindow is runParallelWindow's step sequence.
func (d *driver) parallelWindow(job parallelWindow) error {
	// The reset after the warmup head (the generator prologue, a
	// branch-free working-set sweep that primes every cache level) makes
	// the settle window's fill and miss rates — the inputs to gap aging
	// and re-warm sizing — reflect real stream behaviour rather than the
	// sweep's 100%-fill transient.
	if job.warmPro > 0 {
		if err := d.simulate(job.warmPro, stageWarmup); err != nil {
			return err
		}
	}
	d.resetStats()
	if job.warmSettle > 0 {
		if err := d.settle(job.warmSettle, stageWarmup); err != nil {
			return err
		}
	}

	// The re-warm must be long enough to rebuild the cache content aging
	// is about to evict — a fixed 8Ki window (the sampled default)
	// suffices there only because a sampling gap turns over a few
	// percent of L2/L3; a parallel window's gap can span most of the
	// stream and turn over whole caches, and counting on top of a
	// drained L2 biases its miss rate far high. Sizing: per cache, the
	// instructions needed to replace the evicted lines at the settled
	// fill rate; the re-warm covers the hungriest cache, floored at the
	// sampled default and capped by the gap. The measurement is a pure
	// function of the stream prefix, so the partition — and every result
	// bit — stays deterministic. Aging covers the whole gap, re-warm
	// included.
	rewarm := min(minParallelWarmup, job.gap)
	if d.fillInstr > 0 {
		for i, ev := range d.evictions(job.gap) {
			if f := float64(d.fills[i]) / float64(d.fillInstr); f > 0 {
				rewarm = max(rewarm, uint64(ev/f))
			}
		}
		rewarm = min(rewarm, job.gap)
	}
	if err := d.bridge(job.gap, job.gap-rewarm, minParallelWarmup*warmTailFactor, ""); err != nil {
		return err
	}
	if rewarm > 0 {
		if err := d.simulate(rewarm, stageWarmup); err != nil {
			return err
		}
	}
	d.resetStats()
	return d.simulate(job.counted, stageDetail)
}
