package machine

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/trace"
)

// stage names one slice of a run's wall time. Exact and shared-L3 runs
// spend it in warmup and simulate; sampled runs and parallel windows in
// warmup (prologue, settle and re-warm windows), fast-forward (gap
// aging and skipping) and detail (the counted windows).
type stage int

const (
	stageWarmup stage = iota
	stageSimulate
	stageFastForward
	stageDetail
	numStages
)

var stageNames = [numStages]string{"warmup", "simulate", "fast-forward", "detail"}

// Per-stage wall-time histograms, one observation per run and stage.
// The timing happens at window boundaries only (a window is thousands
// of instructions), so the kernel's inner loop is untouched: zero
// added allocations and no per-uop work.
var metStageSeconds = [numStages]*obs.Histogram{
	obs.Default().Histogram("speckit_stage_seconds", "Wall time per simulation stage, accumulated over one run.", obs.LatencyBuckets, "stage", "warmup"),
	obs.Default().Histogram("speckit_stage_seconds", "", obs.LatencyBuckets, "stage", "simulate"),
	obs.Default().Histogram("speckit_stage_seconds", "", obs.LatencyBuckets, "stage", "fast-forward"),
	obs.Default().Histogram("speckit_stage_seconds", "", obs.LatencyBuckets, "stage", "detail"),
}

// stageTimes accumulates a run's wall time per stage. Each stage that
// ran is recorded once, when the run ends, however many windows fed it.
type stageTimes struct {
	dur [numStages]time.Duration
	ran [numStages]bool
}

func (t *stageTimes) add(st stage, since time.Time) {
	t.dur[st] += time.Since(since)
	t.ran[st] = true
}

func (t *stageTimes) merge(o *stageTimes) {
	for st := range t.dur {
		t.dur[st] += o.dur[st]
		t.ran[st] = t.ran[st] || o.ran[st]
	}
}

// record feeds each stage that ran into its histogram and, when a span
// is attached, records it as a finished stage child span.
func (t *stageTimes) record(span *obs.Span) {
	for st, ran := range t.ran {
		if ran {
			metStageSeconds[st].ObserveDuration(t.dur[st])
			span.Stage(stageNames[st], t.dur[st])
		}
	}
}

// skipChunkLen bounds one uninterrupted skip so a cancelled context is
// noticed within a bounded amount of fast-forward work.
const skipChunkLen = 1 << 20

// checkRun is the entry check every run mode shares: a valid machine, a
// non-empty window, and a sampling knob the mode can honour. Only the
// batched Run samples (mode ""); every other mode names itself in the
// rejection.
func checkRun(cfg Config, opt Options, mode string) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if opt.Instructions == 0 {
		return fmt.Errorf("machine: zero-length run")
	}
	if mode == "" {
		return opt.Sampling.Validate()
	}
	if opt.Sampling.Enabled() {
		return fmt.Errorf("machine: sampling is not supported by %s", mode)
	}
	return nil
}

// batchBuf allocates the batched kernel's uop buffer: Options.BatchSize
// records, or DefaultBatchSize when unset.
func batchBuf(opt Options) []trace.Uop {
	if opt.BatchSize > 0 {
		return make([]trace.Uop, opt.BatchSize)
	}
	return make([]trace.Uop, DefaultBatchSize)
}

// driver is the one simulation lifecycle behind every batched run mode.
// It owns the cores and their sources, one batch buffer, the context
// and the per-stage wall times, and offers the steps the modes compose:
// simulate, reset, settle (simulate while measuring fill rates), bridge
// a gap, and finish. Run is warmup → simulate → finish, or warmup →
// settle → (bridge → re-warm → counted window)* → finish when sampled;
// a parallel window is prologue → reset → settle → bridge → re-warm →
// reset → counted window; RunShared is warmup → simulate → finish over
// several cores sharing an L3.
type driver struct {
	cfg   Config
	opt   Options
	cores []*core
	srcs  []trace.BatchSource
	buf   []trace.Uop
	// backInv counts the shared-L3 back-invalidations since the last
	// reset.
	backInv uint64
	// fills and fillInstr are the fill-rate estimate gap aging and
	// re-warm sizing run on: core 0's fills per aged cache (L1I, L1D,
	// L2, L3) over fillInstr settled instructions.
	fills     [4]uint64
	fillInstr uint64
	stages    stageTimes
}

// newDriver builds one core per source. Unshared cores get private
// hierarchies; shared ones sit on one inclusive L3 whose evictions
// back-invalidate every core's private copies. A nil buf allocates one.
func newDriver(cfg Config, opt Options, srcs []trace.Source, shared bool, buf []trace.Uop) *driver {
	if buf == nil {
		buf = batchBuf(opt)
	}
	d := &driver{cfg: cfg, opt: opt, buf: buf}
	var l3 *cache.Cache
	if shared {
		l3 = cache.New(cfg.Hierarchy.L3)
		l3.OnEvict = d.backInvalidate
	}
	for _, src := range srcs {
		d.cores = append(d.cores, newCore(cfg, l3))
		d.srcs = append(d.srcs, trace.AsBatch(src))
	}
	return d
}

// backInvalidate drops a line the shared L3 evicted from every core's
// private levels, counting each copy it finds.
func (d *driver) backInvalidate(addr uint64) {
	for _, c := range d.cores {
		if c.hier.Cache(cache.L1).Invalidate(addr) {
			d.backInv++
		}
		if c.hier.Cache(cache.L2).Invalidate(addr) {
			d.backInv++
		}
		if d.cfg.UnifiedCodePath && c.hier.L1I().Invalidate(addr) {
			d.backInv++
		}
	}
}

// exhausted is the one error for a source that ends early.
func exhausted(st stage, stream int) error {
	return fmt.Errorf("machine: source exhausted during %s (stream %d)", stageNames[st], stream)
}

// simulate advances every core n instructions through the batched
// kernel and charges the time to st. One core runs straight through;
// several take turns one sharedQuantum at a time, and each measured
// round feeds the rate window metrics.
func (d *driver) simulate(n uint64, st stage) error {
	defer d.stages.add(st, time.Now())
	q := n
	if len(d.cores) > 1 {
		q = sharedQuantum
	}
	for done := uint64(0); done < n; {
		step := min(q, n-done)
		roundStart := time.Now()
		for i, c := range d.cores {
			got, err := c.runWindow(d.srcs[i], d.buf, step, d.opt.Context)
			if err != nil {
				return err
			}
			if got < step {
				return exhausted(st, i)
			}
		}
		if len(d.cores) > 1 && st == stageSimulate {
			metWindowSeconds["rate"].Observe(time.Since(roundStart).Seconds())
			metPairWindows["rate"].Add(uint64(len(d.cores)))
		}
		done += step
	}
	return nil
}

// warmup simulates the options' uncounted warmup and resets the
// statistics.
func (d *driver) warmup() error {
	if n := warmupLength(d.opt); n > 0 {
		if err := d.simulate(n, stageWarmup); err != nil {
			return err
		}
		d.resetStats()
	}
	return nil
}

// resetStats zeroes every statistic the run reports while keeping all
// microarchitectural state warm.
func (d *driver) resetStats() {
	for _, c := range d.cores {
		c.resetStats()
	}
	d.backInv = 0
}

// settle simulates n instructions on core 0 and adds the fills they
// cause to the fill-rate estimate. Sampled runs settle once up front
// and keep feeding the estimate from their counted windows; parallel
// windows settle once after the prologue.
func (d *driver) settle(n uint64, st stage) error {
	levels := d.cores[0].agedLevels()
	var before [4]uint64
	for i, ch := range levels {
		before[i] = ch.Fills()
	}
	if err := d.simulate(n, st); err != nil {
		return err
	}
	for i, ch := range levels {
		d.fills[i] += ch.Fills() - before[i]
	}
	d.fillInstr += n
	return nil
}

// evictions estimates, per aged cache, how many lines n unsimulated
// instructions would have displaced: the settled fill rate scaled by
// alpha (1 for the L1s, the ageCoeff power law for L2/L3), capped at
// the cache's capacity. Zero without a fill-rate estimate.
func (d *driver) evictions(n uint64) [4]float64 {
	var ev [4]float64
	if d.fillInstr == 0 {
		return ev
	}
	for i, ch := range d.cores[0].agedLevels() {
		alpha := 1.0
		if i >= 2 {
			alpha = ageCoeff * math.Pow(ch.Stats().MissRate(), agePow)
		}
		ev[i] = min(alpha*float64(d.fills[i])/float64(d.fillInstr)*float64(n), float64(ch.Lines()))
	}
	return ev
}

// bridge crosses skip instructions of core 0's stream without
// simulating them. The caches are frozen across the gap, so they are
// first aged by what span instructions would have displaced (span also
// covers any re-warm window the caller simulates next). The gap head is
// then cold-skipped and its last tail records are warm-skipped, feeding
// their branches to the predictor; both poll the context every
// skipChunkLen records, since a native skip can cover millions of
// records per call.
func (d *driver) bridge(span, skip, tail uint64) error {
	defer d.stages.add(stageFastForward, time.Now())
	c, src := d.cores[0], d.srcs[0]
	ev := d.evictions(span)
	for i, ch := range c.agedLevels() {
		ch.Age(int(ev[i]))
	}
	cold := skip - min(tail, skip)
	for done := uint64(0); done < skip; {
		if ctx := d.opt.Context; ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		var got, step uint64
		if done < cold {
			step = min(cold-done, skipChunkLen)
			got = trace.SkipRecords(src, d.buf, step)
		} else {
			step = min(skip-done, skipChunkLen)
			got = trace.SkipRecordsWarm(src, d.buf, step, c.unit.Warm)
		}
		if got < step {
			return exhausted(stageFastForward, 0)
		}
		done += step
	}
	return nil
}

// finish records each stage that ran, once, and derives one Result per
// count record.
func (d *driver) finish(cts ...Counts) ([]*Result, error) {
	d.stages.record(d.opt.Span)
	out := make([]*Result, len(cts))
	for i, ct := range cts {
		r, err := DeriveResult(d.cfg, d.opt, ct)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}
