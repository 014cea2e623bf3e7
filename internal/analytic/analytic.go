// Package analytic is the fastest fidelity tier: instead of simulating
// the measured window it profiles a short slice of the uop stream,
// converts the resulting reuse-distance profile into predicted
// per-level cache hit rates (a StatStack-style correction from the
// fully-associative LRU miss curve to each set-associative level), and
// feeds the predictions through the same first-order interval model the
// simulation tiers use. Branch, L1I and DTLB behaviour — which have no
// useful miss-curve abstraction — are measured directly over a short
// window and extrapolated, exactly as the sampled tier extrapolates its
// detailed windows.
//
// The tier's contract is statistical, not bit-level: the generalized
// tolerance harness (internal/stats.Gate) gates its predictions against
// exact simulation at per-metric bound families like sampling's, and
// the kernel benchmark suite enforces a >= 100x per-pair speedup floor
// over the exact batched kernel.
package analytic

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/profile"
	"repro/internal/rdist"
	"repro/internal/synth"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// Phase lengths, in uops. The whole tier is constant-cost: these
// windows are simulated no matter how long the nominal stream is, and
// everything else is prediction.
//
//   - profileUops runs right after the generator prologue with the
//     reuse-distance profiler attached. The synthetic stream is
//     stationary, so ~3k references pin the miss curve to well inside
//     the tolerance floors (binomial sigma under 1pp per band).
//   - warmUops then trains the branch predictor, L1I and DTLB out of
//     their post-prologue transient (the prologue is a branch-free
//     sweep, so the predictor starts cold) without the profiler's
//     per-reference cost.
//   - measureUops is the counted window every extrapolated counter
//     comes from; statistics reset at its start, state stays warm.
const (
	profileUops = 8 << 10
	warmUops    = 56 << 10
	measureUops = 64 << 10
	batchLen    = 4096
)

// StreamProfile is the expensive, machine-point-independent half of an
// analytic characterization: everything the simulated windows measure
// about one synthetic stream. It depends only on the inputs ProfileKey
// names — the stream (model and cache geometry in lines) and the front
// end that walks it — so every machine point that shares those inputs
// can Predict from one profile instead of replaying the stream. A
// profile is immutable once built and safe to share between goroutines.
type StreamProfile struct {
	// dists are the exact finite reuse distances of the profile window,
	// in stream order; cold references are counted in refs only.
	// Predict sums its per-level hit probabilities over them in this
	// order, which keeps every float bit-identical to a fused run.
	dists []int32
	// refs counts every memory reference of the profile window.
	refs uint64
	// counts holds the measure window's raw counters, before scaling to
	// the nominal stream length, and the footprint high-water marks. Its
	// per-level splits stay empty: Predict fills them from the miss
	// curve.
	counts machine.Counts
}

// Run characterizes one synthetic uop stream analytically, returning a
// Result shaped exactly like the simulation tiers' (the shared
// machine.DeriveResult back half guarantees the tiers cannot drift in
// how counts become a Result). The warmup options are ignored: the
// generator prologue defines the warmup, and the tier chooses its own
// window lengths. Run is Predict over a fresh Profile; callers that
// evaluate one stream at many machine points memoize the profile by
// ProfileKey instead.
func Run(cfg machine.Config, gen *synth.Generator, opt machine.Options) (*machine.Result, error) {
	sp, err := Profile(cfg, gen)
	if err != nil {
		return nil, err
	}
	return Predict(cfg, opt, sp)
}

// CheckConfig rejects machines the miss-curve model cannot represent:
// a prefetcher, a unified code path or a non-LRU data level. specserved
// calls it when an analytic campaign or an analytic sweep screen is
// submitted, so such a machine is refused before it runs.
func CheckConfig(cfg machine.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Hierarchy.Prefetcher.String() != "none" {
		return fmt.Errorf("analytic: miss-curve prediction has no prefetcher model (machine %q configures one)", cfg.Name)
	}
	if cfg.UnifiedCodePath {
		return fmt.Errorf("analytic: unified code path routes fetch fills through the data levels, which the miss-curve model cannot see (machine %q)", cfg.Name)
	}
	h := cfg.Hierarchy
	for _, c := range []cache.Config{h.L1D, h.L2, h.L3} {
		if p := c.Policy.String(); p != "lru" {
			return fmt.Errorf("analytic: the miss-curve model is an LRU stack model and has no %s replacement policy (machine %q, %s)", p, cfg.Name, c.Name)
		}
	}
	return nil
}

// check is CheckConfig plus the run options the tier accepts.
func check(cfg machine.Config, opt machine.Options) error {
	if err := CheckConfig(cfg); err != nil {
		return err
	}
	if opt.Instructions == 0 {
		return fmt.Errorf("analytic: zero-length run")
	}
	if opt.Sampling.Enabled() {
		return fmt.Errorf("analytic: sampling does not compose with the analytic tier")
	}
	return nil
}

// ProfileKey returns the content key of the StreamProfile that Profile
// builds for model on cfg: every input Profile reads, and nothing else.
// The stream is fixed by the full model (seed included) and the cache
// geometry in lines; the front end that walks it by the L1I level, the
// L1D line size the profiler buckets addresses into, and the branch
// unit. Data-cache ways, the pipeline, the clock and the machine name
// only enter Predict, so machine points that differ only in those share
// one profile. Data-cache policies enter neither: CheckConfig admits
// only LRU data levels.
func ProfileKey(cfg machine.Config, model profile.Model) string {
	l1i := cfg.Hierarchy.L1I
	return fmt.Sprintf("analytic-profile|model=%+v|geo=%+v|l1i=%d:%d:%d:%s|l1d.line=%d|bp=%s:%d:%d",
		model, cfg.Geometry(),
		l1i.SizeBytes, l1i.Ways, l1i.LineBytes, l1i.Policy,
		cfg.Hierarchy.L1D.LineBytes,
		cfg.Predictor, cfg.BTBBits, cfg.RASDepth)
}

// Profile drives gen through the tier's simulated windows on cfg's
// front end and returns the stream's profile. gen must be fresh (built
// by synth.New for the model and cfg.Geometry() the profile is keyed
// by); it is consumed.
func Profile(cfg machine.Config, gen *synth.Generator) (*StreamProfile, error) {
	if err := CheckConfig(cfg); err != nil {
		return nil, err
	}
	// The front-end, translation and footprint structures are the real
	// component models, driven through the simulated windows so their
	// measured slices see warm state — only the data-cache stack is
	// replaced by the profiler.
	unit := branch.NewUnit(cfg.Predictor.New(), cfg.BTBBits, cfg.RASDepth)
	l1i := cache.New(cfg.Hierarchy.L1I)
	dtlb := tlb.NewHaswell()
	foot := mem.NewFootprint(0, 1<<30, 0)
	prof := rdist.NewProfiler(cfg.Hierarchy.L1D.LineBytes)

	// Phase 1 — prologue. The generator's pool-sweep warmup is replayed
	// with its addresses collected, then bulk-loaded into the profiler's
	// LRU stack in one pass (rdist.Preload): the stack state is exactly
	// as if every address had been Touched, but nothing lands in the
	// histogram — cold-start distances are not workload behaviour. The
	// sweep is branch-free straight-line code, so only the footprint
	// model sees it.
	prologue := gen.Prologue()
	var u trace.Uop
	addrs := make([]uint64, 0, prologue)
	for i := uint64(0); i < prologue; i++ {
		if !gen.Next(&u) {
			return nil, fmt.Errorf("analytic: source exhausted during prologue")
		}
		if u.IsMem() {
			addrs = append(addrs, u.Addr)
			foot.Touch(u.Addr)
		}
	}
	prof.Preload(addrs)

	// Phase 2 — profile window: the full component step plus the
	// reuse-distance profiler on every memory reference. The exact
	// per-reference distances are kept in stream order, not folded into
	// the bucketed histogram: the power-of-two buckets smear mass across
	// each level's narrow conflict ramp, which alone costs up to ten
	// points of local L2 miss rate on the pointer-chasing profiles (see
	// HitFractions for the coarse histogram-resolution equivalent).
	sp := &StreamProfile{dists: make([]int32, 0, profileUops)}
	for i := 0; i < profileUops; i++ {
		if !gen.Next(&u) {
			return nil, fmt.Errorf("analytic: source exhausted")
		}
		if !l1i.Access(u.PC, cache.AccessFetch) {
			l1i.Access(u.PC+64, cache.AccessPrefetch)
		}
		switch u.Kind {
		case trace.KindLoad, trace.KindStore:
			sp.refs++
			if d := prof.Touch(u.Addr); d != rdist.Infinite {
				sp.dists = append(sp.dists, int32(d))
			}
			dtlb.Translate(u.Addr)
			foot.Touch(u.Addr)
		case trace.KindBranch:
			unit.Resolve(&u)
		}
	}
	if sp.refs == 0 {
		return nil, fmt.Errorf("analytic: no memory references in the profile window")
	}
	// Callers may keep the profile for a long time: trim the window-
	// sized buffer to the distances actually recorded.
	sp.dists = slices.Clone(sp.dists)

	// Phase 3 — warm window. Only the branch predictor still needs
	// training at this point (the prologue is branch-free, and big
	// history tables converge slowly); the L1I, DTLB and footprint
	// working sets all fit and saturated during the profile window, so
	// driving them here would spend the tier's whole budget warming
	// structures that are already warm.
	buf := make([]trace.Uop, batchLen)
	for done := 0; done < warmUops; {
		want := warmUops - done
		if want > batchLen {
			want = batchLen
		}
		n := gen.NextBatch(buf[:want])
		if n < want {
			return nil, fmt.Errorf("analytic: source exhausted")
		}
		for j := range buf[:n] {
			if buf[j].Kind == trace.KindBranch {
				unit.Resolve(&buf[j])
			}
		}
		done += n
	}

	// Phase 4 — measure window: the full component step again, counters
	// restarted at its start (state stays warm).
	unit.ResetStats()
	l1i.ResetStats()
	dtlb.ResetStats()
	for done := 0; done < measureUops; {
		want := measureUops - done
		if want > batchLen {
			want = batchLen
		}
		n := gen.NextBatch(buf[:want])
		if n < want {
			return nil, fmt.Errorf("analytic: source exhausted")
		}
		for j := range buf[:n] {
			b := &buf[j]
			sp.counts.Kinds[b.Kind]++
			if !l1i.Access(b.PC, cache.AccessFetch) {
				l1i.Access(b.PC+64, cache.AccessPrefetch)
			}
			switch b.Kind {
			case trace.KindLoad, trace.KindStore:
				// No foot.Touch here: the footprint model saw the full
				// working set in the prologue and the profile window; a
				// map update per reference buys nothing but time.
				dtlb.Translate(b.Addr)
			case trace.KindBranch:
				unit.Resolve(b)
			}
		}
		done += n
	}
	sp.counts.FetchMisses = l1i.Stats().Misses
	sp.counts.Walks = dtlb.Walks()
	sp.counts.Branch = unit.Stats()
	sp.counts.RSSBytes, sp.counts.VSZBytes = foot.PeakRSS(), foot.VSZ()
	return sp, nil
}

// Predict evaluates a stream profile at one machine point: the miss
// curve at cfg's data-cache levels, the measured counters scaled to
// opt.Instructions, and the shared derivation. sp must come from
// Profile on a configuration with the same ProfileKey as cfg.
func Predict(cfg machine.Config, opt machine.Options, sp *StreamProfile) (*machine.Result, error) {
	if err := check(cfg, opt); err != nil {
		return nil, err
	}
	// Evaluate this point's miss curve on the profiled distances, then
	// predict per-level service fractions, scale the measured counts to
	// the full stream and hand everything to the shared derivation.
	geoms := [3]geom{
		geomOf(cfg.Hierarchy.L1D),
		geomOf(cfg.Hierarchy.L2),
		geomOf(cfg.Hierarchy.L3),
	}
	var hitSum [3]float64
	for _, d := range sp.dists {
		fd := float64(d)
		hitSum[0] += hitProb(fd, geoms[0])
		hitSum[1] += hitProb(fd, geoms[1])
		hitSum[2] += hitProb(fd, geoms[2])
	}
	fr := levelFractions(hitSum, sp.refs)
	ct := sp.counts.Scaled(float64(opt.Instructions) / float64(measureUops))
	ct.LoadLevel = splitByLevel(ct.Kinds[trace.KindLoad], fr)
	ct.DataLevel = splitByLevel(ct.Kinds[trace.KindLoad]+ct.Kinds[trace.KindStore], fr)
	return machine.DeriveResult(cfg, opt, ct)
}

// geom is a level's set/way decomposition, precomputed so the per-
// reference curve evaluation is three comparisons and a divide.
type geom struct {
	rampLo float64 // Sets * (Ways-1): below this every placement hits
	rampHi float64 // Sets * Ways: above this every placement has evicted
}

func geomOf(cc cache.Config) geom {
	lines := cc.SizeBytes / cc.LineBytes
	sets := lines / cc.Ways
	return geom{
		rampLo: float64(sets * (cc.Ways - 1)),
		rampHi: float64(sets * cc.Ways),
	}
}

// levelFractions converts the accumulated per-level hit sums into the
// fraction of memory references serviced at each level of the
// hierarchy. Cold references (first touches — the streaming part of the
// working set) contributed no hits, so they miss every level; stores
// follow the same curves as loads (write-allocate, and the synthetic
// stream draws both from the same pools), which is the tier's writeback
// model.
func levelFractions(hitSum [3]float64, refs uint64) [4]float64 {
	p1 := hitSum[0] / float64(refs)
	p2 := hitSum[1] / float64(refs)
	p3 := hitSum[2] / float64(refs)
	// The stack property (a bigger cache holds a superset under LRU)
	// can be violated by a hair of numerical noise in the per-level
	// corrections; clamp to monotone before differencing.
	p2 = math.Max(p2, p1)
	p3 = math.Max(p3, p2)
	var fr [4]float64
	fr[cache.HitL1] = p1
	fr[cache.HitL2] = p2 - p1
	fr[cache.HitL3] = p3 - p2
	fr[cache.HitMemory] = 1 - p3
	return fr
}

// HitFractions corrects a fully-associative LRU reuse-distance
// histogram for one set-associative level: the fraction of ALL recorded
// references (cold ones count as misses) that would hit a cache of the
// given geometry. It integrates bucket by bucket with the same
// uniform-in-bucket mass assumption rdist.MassBelow makes, so it is the
// coarse, histogram-resolution form of the prediction Run makes from
// exact distances — use it for capacity sweeps over an already-collected
// histogram, where re-profiling per geometry would defeat the point.
func HitFractions(h *rdist.Histogram, cc cache.Config) float64 {
	if h.Total() == 0 {
		return 0
	}
	g := geomOf(cc)
	bounds, counts := h.Buckets()
	var hits float64
	for i, lo := range bounds {
		hi := 2 * lo
		if lo == 0 {
			hi = 1
		}
		hits += float64(counts[i]) * bucketHitProb(lo, hi, g)
	}
	return hits / float64(h.Total())
}

// bucketHitProb averages P(hit | distance D) over the bucket [lo, hi)
// under a uniform mass assumption. Narrow buckets enumerate every
// distance; wide ones take eight midpoint samples.
func bucketHitProb(lo, hi int, g geom) float64 {
	const samples = 8
	if hi-lo <= samples {
		sum := 0.0
		for d := lo; d < hi; d++ {
			sum += hitProb(float64(d), g)
		}
		return sum / float64(hi-lo)
	}
	sum := 0.0
	for j := 0; j < samples; j++ {
		d := float64(lo) + float64(hi-lo)*(float64(j)+0.5)/samples
		sum += hitProb(d, g)
	}
	return sum / samples
}

// hitProb is P(hit | stack distance d) under balanced placement. A warm
// reference at stack distance D survives iff its own set received at
// most Ways-1 of the D intervening distinct lines. The synthetic
// generator lays its pool lines out contiguously, so the intervening
// lines spread across the sets near-uniformly (balanced placement, not
// the independent random placement classic StatStack assumes): the
// conflict count concentrates at D/Sets, and the hit probability falls
// linearly from 1 to 0 as D crosses from Sets*(Ways-1) to Sets*Ways.
func hitProb(d float64, g geom) float64 {
	switch {
	case d <= g.rampLo:
		return 1
	case d >= g.rampHi:
		return 0
	}
	return (g.rampHi - d) / (g.rampHi - g.rampLo)
}

// splitByLevel distributes a scaled reference total over the service
// levels, assigning the memory level the exact remainder so the level
// counts always sum to the total.
func splitByLevel(total uint64, fr [4]float64) [4]uint64 {
	var out [4]uint64
	var assigned uint64
	for _, lvl := range []cache.HitLevel{cache.HitL1, cache.HitL2, cache.HitL3} {
		out[lvl] = uint64(float64(total)*fr[lvl] + 0.5)
		assigned += out[lvl]
	}
	if assigned > total {
		// Rounding overshoot: trim from the largest on-chip level.
		excess := assigned - total
		for _, lvl := range []cache.HitLevel{cache.HitL1, cache.HitL2, cache.HitL3} {
			if out[lvl] >= excess {
				out[lvl] -= excess
				assigned -= excess
				break
			}
		}
	}
	out[cache.HitMemory] = total - assigned
	return out
}
