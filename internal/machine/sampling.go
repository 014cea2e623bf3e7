package machine

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/pipeline"
	"repro/internal/synth"
)

// Sampling configures SMARTS-style systematic sampling of a run. When
// enabled (Period > 0), the measured stream is processed as repeating
// periods of Period instructions: the stream is fast-forwarded through
// the source's trace.Skipper capability (or drained, for sources that
// cannot skip), then WarmupLen instructions are simulated to re-warm the
// caches, TLB and branch predictor with their counters discarded, then
// DetailLen instructions are simulated in full detail and counted. The
// counted windows are scaled back up to the full stream length, and the
// inter-window variance yields a per-metric extrapolation-error estimate
// (Result.Sampling).
//
// Sampling is a fidelity knob, not a free lunch: results are an
// estimate of the exact run, not bit-identical to it. The tolerance
// tests bound the error at the default knob to <=2% relative on the
// headline rates (with a small absolute floor where a rate's event
// population is too rare for a relative bound to be meaningful), and
// sampled results are keyed separately from exact ones in every cache
// tier. Workflows that require exact results — golden-table
// regeneration, equivalence testing — must not enable it.
type Sampling struct {
	// Period is the sampling period in instructions; 0 disables sampling.
	Period uint64
	// DetailLen is the counted detailed-simulation window per period.
	DetailLen uint64
	// WarmupLen is the uncounted microarchitectural re-warm window
	// simulated immediately before each detailed window.
	WarmupLen uint64
}

// DefaultSampling returns the default fidelity knob: an 8Ki-instruction
// detailed window preceded by an 8Ki re-warm window every 256Ki
// instructions (~3% counted), tuned (EXPERIMENTS.md) so the headline
// metrics stay within the tolerance-test bounds while the skipped ~94%
// of the stream buys a >=3x wall-clock speedup on multi-million
// instruction runs. Streams shorter than two periods (512Ki) fall back
// to exact simulation — sampling is a long-run knob.
func DefaultSampling() Sampling {
	return Sampling{Period: 262144, DetailLen: 8192, WarmupLen: 8192}
}

// ParseSampling parses the sampling-knob syntax shared by the cmd tools
// and the server API: "off" (or "", "none", "0") disables sampling, "on"
// or "default" selects DefaultSampling, and "PERIOD/DETAIL/WARMUP"
// (instruction counts, e.g. "262144/8192/8192") sets the knob
// explicitly.
func ParseSampling(s string) (Sampling, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "off", "none", "0":
		return Sampling{}, nil
	case "on", "default":
		return DefaultSampling(), nil
	}
	parts := strings.Split(s, "/")
	if len(parts) != 3 {
		return Sampling{}, fmt.Errorf("bad sampling %q: want off, default, or PERIOD/DETAIL/WARMUP", s)
	}
	vals := make([]uint64, 3)
	for i, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return Sampling{}, fmt.Errorf("bad sampling %q: %v", s, err)
		}
		vals[i] = v
	}
	knob := Sampling{Period: vals[0], DetailLen: vals[1], WarmupLen: vals[2]}
	if err := knob.Validate(); err != nil {
		return Sampling{}, err
	}
	if !knob.Enabled() {
		return Sampling{}, fmt.Errorf("bad sampling %q: zero period (use \"off\" to disable)", s)
	}
	return knob, nil
}

// warmTailFactor scales the functionally-warmed tail of each sampling
// gap, in units of WarmupLen. Warming the whole gap keeps the predictor
// exact but costs ~30-40% extra on the fast-forward path; the tables'
// hot entries retrain within a few thousand branches, so a bounded tail
// recovers nearly all of the accuracy at a fraction of the cost (see
// EXPERIMENTS.md for the sweep). Not part of the public knob.
const warmTailFactor uint64 = 8

// ageCoeff and agePow scale the gap-turnover aging of the big caches
// (L2, L3; see driver.evictions) as alpha = ageCoeff * missRate^agePow
// of the cache's observed fill rate. One gap fill displaces one victim only
// when the victim would not have been re-touched during the gap; the
// thrashier the cache, the larger the share of its content that is dead
// on arrival, and the power law is the simplest shape that matched the
// per-family bias sweep (EXPERIMENTS.md). The L1s age at the full fill
// rate — their reuse horizon is far shorter than any practical gap, so
// their turnover really is complete. Not part of the public knob.
const (
	ageCoeff = 0.4
	agePow   = 1.5
)

// jitterSeed seeds the fixed splitmix64 stream that jitters each
// period's window offset (see driver.sample); sampled runs are
// bit-reproducible because it is fixed.
const jitterSeed uint64 = 0x9E3779B97F4A7C15

// Enabled reports whether the knob turns sampling on.
func (s Sampling) Enabled() bool { return s.Period > 0 }

// Validate reports knob errors. The zero value (disabled) is valid.
func (s Sampling) Validate() error {
	if s.Period == 0 {
		if s.DetailLen != 0 || s.WarmupLen != 0 {
			return fmt.Errorf("machine: sampling windows set but period is zero")
		}
		return nil
	}
	if s.DetailLen == 0 {
		return fmt.Errorf("machine: sampling needs a positive detail window")
	}
	// Compared without adding the windows, whose sum can wrap.
	if s.DetailLen > s.Period || s.WarmupLen > s.Period-s.DetailLen {
		return fmt.Errorf("machine: sampling windows (%d detail + %d warmup) exceed period %d",
			s.DetailLen, s.WarmupLen, s.Period)
	}
	return nil
}

// String renders the knob in the "period/detail/warmup" form
// ParseSampling accepts.
func (s Sampling) String() string {
	if !s.Enabled() {
		return "off"
	}
	return fmt.Sprintf("%d/%d/%d", s.Period, s.DetailLen, s.WarmupLen)
}

// SamplingStats records how a sampled run was measured and how far its
// extrapolated metrics are expected to stray from an exact run. The
// error fields are relative standard errors estimated from the
// variance of the per-window metric values — 0 means "not estimable"
// (fewer than two windows carried the metric's events), not certainty.
type SamplingStats struct {
	// Period, DetailLen, WarmupLen echo the knob the run used.
	Period, DetailLen, WarmupLen uint64
	// Windows is the number of counted detailed windows. Zero means the
	// run was too short to sample (under two periods) and ran exact.
	Windows int
	// SampledFraction is the counted fraction of the measured stream.
	SampledFraction float64
	// Relative standard errors of the headline metrics.
	IPCRelErr, L1RelErr, L2RelErr, L3RelErr, MispredictRelErr float64
}

// sample is the systematic-sampling run loop. The core arrives
// post-warmup; a settle window is then simulated in full with its
// counters discarded (the global warmup under sampling is typically
// just the generator prologue, a branch-free load sweep, so recency
// and predictor state still need real stream behaviour before the
// first counted window). Every subsequent period is bridge -> warm ->
// detail. Across a bridge caches and TLB are frozen apart from the
// estimated turnover aging removes, while branch state is kept
// functionally warm over the gap's tail: predictor state is
// phase-sensitive, and freezing it would bias every counted window's
// mispredict rate upward. The warm window then re-aligns the
// small-horizon state (L1, TLB recency), and the dominant residual
// error is statistical, which the inter-window variance estimate
// captures.
func (d *driver) sample() (*Result, error) {
	sp := d.opt.Sampling
	total := d.opt.Instructions
	c := d.cores[0]
	// A generator's bridges are memoized under the run's branch inputs.
	var run string
	if gen, ok := d.feeds[0].src.(*synth.Generator); ok {
		run = bridgeRun(d.cfg, d.opt, gen.Pos())
	}

	// The settle window needs to cover the small-horizon state (L1 and
	// the predictor's hot entries); the big structures fill cumulatively
	// across the whole run — detailed windows insert, skips freeze — so
	// stretching the settle to a full period would buy accuracy nothing
	// and cost wall-clock on large-period knobs.
	//
	// Cache aging across gaps: a frozen cache keeps the lines the skipped
	// stream would have displaced, and a cyclic reference stream re-hits
	// them in the next counted window, biasing its miss rate low (most
	// visibly at L2/L3 on large-footprint profiles, where a gap can turn
	// over most of the cache). Each bridge therefore invalidates as many
	// replacement victims as the gap would have filled, estimated from
	// the fill rate observed while simulating. The settle window seeds
	// the estimate; afterwards only detailed windows feed it — post-gap
	// warmup windows refill the small caches at far above the
	// steady-state rate and would inflate it.
	settle := min(max(2*sp.WarmupLen, 8192), sp.Period)
	if err := d.settle(settle, stageWarmup); err != nil {
		return nil, err
	}
	done := settle
	skipLen := sp.Period - sp.DetailLen - sp.WarmupLen
	warmTail := sp.WarmupLen * warmTailFactor

	// The warm+detail block lands at a jittered offset within each
	// period rather than a fixed phase. The synthetic streams have their
	// own periodicities (the round-robin reuse pools cycle at working-set
	// rates commensurate with practical sampling periods), and strict
	// systematic placement aliases with them — the counted windows then
	// observe one phase of the cycle and the extrapolation is biased no
	// matter how long the warmup is. The offset sequence is a fixed-seed
	// splitmix64 stream, so sampled runs stay bit-reproducible.
	jitter := jitterSeed
	var windows []Counts
	var agg Counts
	detailed := uint64(0)
	carry := uint64(0)
	for done < total {
		jitter += 0x9E3779B97F4A7C15
		z := jitter
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		pre := uint64(0)
		if skipLen > 0 {
			// Multiply-shift draw of the pre-block skip in [0, skipLen].
			if skipLen < 1<<32 {
				pre = (z >> 32) * (skipLen + 1) >> 32
			} else {
				pre = z % (skipLen + 1)
			}
		}
		// The gap before this period's warm+detail block is the tail of
		// the previous period plus this period's jittered offset. Only its
		// last warmTail instructions keep the predictor functionally warm;
		// the head is a plain skip — predictor state written further back
		// than that horizon is either refreshed by the tail anyway (hot
		// sites) or too cold-tail to surface in a detailed window.
		gap := carry + pre
		carry = skipLen - pre
		if s := min(gap, total-done); s > 0 {
			// A bridge cut short by the end of the run is the run's last
			// step: no window reads the predictor after it, so it skips
			// cold and is not memoized.
			tail, memo := warmTail, run
			if s < gap {
				tail, memo = 0, ""
			}
			if err := d.bridge(s, s, tail, memo); err != nil {
				return nil, err
			}
			done += s
		}
		if w := min(sp.WarmupLen, total-done); w > 0 {
			if err := d.simulate(w, stageWarmup); err != nil {
				return nil, err
			}
			done += w
		}
		if n := min(sp.DetailLen, total-done); n > 0 {
			start := time.Now()
			before := c.counts()
			if err := d.settle(n, stageDetail); err != nil {
				return nil, err
			}
			win := c.counts().sub(before)
			windows = append(windows, win)
			agg.add(win)
			detailed += n
			done += n
			metWindowSeconds["sampled"].ObserveDuration(time.Since(start))
		}
	}
	metPairWindows["sampled"].Add(uint64(len(windows)))
	d.opt.Span.SetAttr("windows", len(windows))

	// total >= 2*Period and DetailLen > 0 guarantee a counted window.
	// The footprint is reported as measured at the end of the run.
	ct := agg.Scaled(float64(total) / float64(detailed))
	ct.RSSBytes, ct.VSZBytes = c.foot.PeakRSS(), c.foot.VSZ()
	res, err := d.finish(ct)
	if err != nil {
		return nil, err
	}
	stats := &SamplingStats{
		Period: sp.Period, DetailLen: sp.DetailLen, WarmupLen: sp.WarmupLen,
		Windows:         len(windows),
		SampledFraction: float64(detailed) / float64(total),
	}
	w := d.opt.Workload
	w.ILP = res[0].ILP
	estimateErrors(stats, d.cfg, w, windows)
	res[0].Sampling = stats
	return res[0], nil
}

// estimateErrors fills the per-metric relative standard errors from the
// spread of the per-window metric values: for k windows the scaled
// estimate is (up to rounding) the mean of the window values, so its
// standard error is std/sqrt(k), reported relative to the mean. Windows
// without the metric's events are excluded; a metric carried by fewer
// than two windows reports 0 (not estimable).
func estimateErrors(stats *SamplingStats, cfg Config, w pipeline.Workload, windows []Counts) {
	var ipc, l1, l2, l3, misp []float64
	for i := range windows {
		win := &windows[i]
		if ev := win.events(); ev.Instructions > 0 {
			if cyc := pipeline.Cycles(cfg.Pipeline, w, ev).Total(); cyc > 0 {
				ipc = append(ipc, float64(ev.Instructions)/cyc)
			}
		}
		hitL2, hitL3, hitMem := win.LoadLevel[cache.HitL2], win.LoadLevel[cache.HitL3], win.LoadLevel[cache.HitMemory]
		l1Miss := hitL2 + hitL3 + hitMem
		l1 = appendRate(l1, l1Miss, win.LoadLevel[cache.HitL1]+l1Miss)
		l2 = appendRate(l2, hitL3+hitMem, l1Miss)
		l3 = appendRate(l3, hitMem, hitL3+hitMem)
		exec, mp := win.Branch.Total()
		misp = appendRate(misp, mp, exec)
	}
	stats.IPCRelErr = relStdErr(ipc)
	stats.L1RelErr = relStdErr(l1)
	stats.L2RelErr = relStdErr(l2)
	stats.L3RelErr = relStdErr(l3)
	stats.MispredictRelErr = relStdErr(misp)
}

func appendRate(dst []float64, num, den uint64) []float64 {
	if den == 0 {
		return dst
	}
	return append(dst, float64(num)/float64(den))
}

// relStdErr returns std(vals)/sqrt(len)/mean(vals), or 0 when that is
// not estimable (fewer than two values, or a zero mean).
func relStdErr(vals []float64) float64 {
	k := len(vals)
	if k < 2 {
		return 0
	}
	mean := 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= float64(k)
	if mean == 0 {
		return 0
	}
	ss := 0.0
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	std := math.Sqrt(ss / float64(k-1))
	return std / math.Sqrt(float64(k)) / mean
}
