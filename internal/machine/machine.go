// Package machine assembles the cache, branch, TLB, footprint and pipeline
// models into a simulated core and runs uop streams through it, producing
// perf-style counter snapshots.
//
// Two machine configurations matter in this project:
//
//   - Haswell() mirrors the paper's Xeon E5-2650L v3 exactly (30 MB L3),
//     for component-level studies and ablations.
//   - HaswellScaled() is the characterization workhorse: identical L1/L2
//     but a 2 MB L3 slice, so that a few hundred thousand simulated
//     instructions can exercise the full reuse-distance range that a
//     multi-billion-instruction SPEC run exercises on the real 30 MB part
//     (a 1:15 capacity scale model; see DESIGN.md).
package machine

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/synth"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// Window-level instrumentation, shared by the two stream-tiling run
// modes: "sampled" counts the periodic detail windows of a sampled run,
// "parallel" the concurrently simulated sub-windows of a RunParallel
// run. Observations happen once per window (thousands of instructions),
// never per uop, and are mirrored into specserved's expvar snapshot.
var metPairWindows = map[string]*obs.Counter{
	"sampled":  obs.Default().Counter("speckit_pair_windows_total", "Detailed windows simulated, by windowing source (sampled periods vs parallel workers).", "source", "sampled"),
	"parallel": obs.Default().Counter("speckit_pair_windows_total", "", "source", "parallel"),
	"rate":     obs.Default().Counter("speckit_pair_windows_total", "", "source", "rate"),
}
var metWindowSeconds = map[string]*obs.Histogram{
	"sampled":  obs.Default().Histogram("speckit_pair_window_seconds", "Wall time per detailed window, by windowing source.", obs.LatencyBuckets, "source", "sampled"),
	"parallel": obs.Default().Histogram("speckit_pair_window_seconds", "", obs.LatencyBuckets, "source", "parallel"),
	"rate":     obs.Default().Histogram("speckit_pair_window_seconds", "", obs.LatencyBuckets, "source", "rate"),
}

// PairWindowStats summarizes the window-level series for specserved's
// expvar snapshot: total windows plus wall-time sum and latency
// quantiles per windowing source.
func PairWindowStats() map[string]any {
	out := make(map[string]any, len(metPairWindows))
	for src, c := range metPairWindows {
		h := metWindowSeconds[src].Snapshot()
		out[src] = map[string]any{
			"windows":     c.Value(),
			"seconds_sum": h.Sum,
			"p50_seconds": h.Quantile(0.5),
			"p99_seconds": h.Quantile(0.99),
		}
	}
	return out
}

// Config describes a simulated machine.
type Config struct {
	// Name labels the configuration in reports.
	Name string
	// Hierarchy is the cache stack configuration.
	Hierarchy cache.HierarchyConfig
	// NewPredictor constructs the branch direction predictor; nil means
	// gshare(14,12).
	NewPredictor func() branch.Predictor
	// BTBBits and RASDepth size the branch target structures.
	BTBBits, RASDepth int
	// Pipeline holds the interval-model timing parameters.
	Pipeline pipeline.Params
	// ClockHz is the core frequency (execution-time conversion).
	ClockHz float64
	// UnifiedCodePath routes L1I misses into L2/L3 (as real Haswell
	// does). The scaled characterization machine disables it so that the
	// data-side insertion rates seen by L2/L3 are exactly the generator's
	// (the paper's L2/L3 miss rates are load-specific counters anyway).
	UnifiedCodePath bool
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Hierarchy.Validate(); err != nil {
		return err
	}
	if err := c.Pipeline.Validate(); err != nil {
		return err
	}
	if c.BTBBits <= 0 || c.BTBBits > 24 || c.RASDepth <= 0 {
		return fmt.Errorf("machine %q: bad branch structure sizes", c.Name)
	}
	if c.ClockHz <= 0 {
		return fmt.Errorf("machine %q: non-positive clock", c.Name)
	}
	return nil
}

// kernelDigest versions the simulation kernel itself inside the
// configuration fingerprint. Bump it whenever a kernel change could alter
// any Result bit for some configuration, so the campaign scheduler's
// memoizing cache can never return results computed by an older kernel
// variant. Options.BatchSize is deliberately NOT part of any cache key:
// the equivalence tests prove results are batch-size independent.
// Options.Sampling, by contrast, IS part of every cache key (core's
// campaign key appends the knob when enabled) because sampled results
// are estimates, never bit-identical to exact ones; v4 marks the kernel
// generation that grew the sampling surface.
const kernelDigest = "kernel=batched-v4"

// Fingerprint returns a deterministic content key for the configuration,
// used by the campaign scheduler's memoizing result cache. Component
// factories (predictor, replacement policy, prefetcher) that implement
// their package's Fingerprinter interface are identified by their full
// parameterized fingerprint; others fall back to name and static
// parameters. Custom components that carry behaviour-affecting parameters
// their Name does not should implement Fingerprinter, otherwise two
// instances sharing a name would alias to the same cached result.
func (c Config) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine|%s|%s|", kernelDigest, c.Name)
	for _, l := range []cache.Config{c.Hierarchy.L1I, c.Hierarchy.L1D, c.Hierarchy.L2, c.Hierarchy.L3} {
		fmt.Fprintf(&b, "%s:%d:%d:%d:%s|", l.Name, l.SizeBytes, l.Ways, l.LineBytes, cache.PolicyFingerprint(l.Policy))
	}
	switch pf := c.Hierarchy.Prefetcher.(type) {
	case nil:
		b.WriteString("pf=none|")
	case *cache.NextLinePrefetcher:
		fmt.Fprintf(&b, "pf=nextline:%d:%d|", pf.LineBytes, pf.Degree)
	case *cache.StridePrefetcher:
		fmt.Fprintf(&b, "pf=stride:%d:%d|", pf.LineBytes, pf.Degree)
	default:
		if f, ok := pf.(cache.Fingerprinter); ok {
			fmt.Fprintf(&b, "pf=%s|", f.Fingerprint())
		} else {
			fmt.Fprintf(&b, "pf=%T|", pf)
		}
	}
	fmt.Fprintf(&b, "bp=%s:%d:%d|", c.PredictorFingerprint(), c.BTBBits, c.RASDepth)
	p := c.Pipeline
	fmt.Fprintf(&b, "pipe=%v:%v:%v:%v:%v:%v:%v:%v|clock=%v|unified=%v",
		p.Width, p.MispredictPenalty, p.L2HitLatency, p.L3HitLatency,
		p.MemLatency, p.FetchMissPenalty, p.WalkPenalty, p.ShortMLP,
		c.ClockHz, c.UnifiedCodePath)
	return b.String()
}

// PredictorFingerprint identifies the configured branch direction
// predictor (the tournament default when NewPredictor is nil) by its
// Fingerprint, falling back to its Name. It constructs a throwaway
// predictor to ask.
func (c Config) PredictorFingerprint() string {
	newPred := c.NewPredictor
	if newPred == nil {
		newPred = func() branch.Predictor { return branch.NewTournament(14) }
	}
	pred := newPred()
	if f, ok := pred.(branch.Fingerprinter); ok {
		return f.Fingerprint()
	}
	return pred.Name()
}

// Geometry returns the cache capacities in lines, for the trace generator.
func (c Config) Geometry() synth.Geometry {
	return synth.Geometry{
		L1Lines: c.Hierarchy.L1D.SizeBytes / c.Hierarchy.L1D.LineBytes,
		L2Lines: c.Hierarchy.L2.SizeBytes / c.Hierarchy.L2.LineBytes,
		L3Lines: c.Hierarchy.L3.SizeBytes / c.Hierarchy.L3.LineBytes,
	}
}

func haswellBase(l3Bytes, l3Ways int) Config {
	return Config{
		Hierarchy: cache.HierarchyConfig{
			L1I: cache.Config{Name: "l1i", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
			L1D: cache.Config{Name: "l1d", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
			L2:  cache.Config{Name: "l2", SizeBytes: 256 << 10, Ways: 8, LineBytes: 64},
			L3:  cache.Config{Name: "l3", SizeBytes: l3Bytes, Ways: l3Ways, LineBytes: 64},
		},
		NewPredictor: func() branch.Predictor { return branch.NewTournament(14) },
		BTBBits:      12,
		RASDepth:     16,
		Pipeline:     pipeline.Haswell(),
		ClockHz:      1.8e9,
	}
}

// Haswell returns the full-size paper machine: Xeon E5-2650L v3, 30 MB
// 20-way shared L3, 1.8 GHz.
func Haswell() Config {
	c := haswellBase(30<<20, 20)
	c.Name = "haswell-e5-2650lv3"
	c.UnifiedCodePath = true
	return c
}

// HaswellScaled returns the characterization scale model: identical
// private levels, 2 MB 16-way L3.
func HaswellScaled() Config {
	c := haswellBase(2<<20, 16)
	c.Name = "haswell-scaled-l3"
	return c
}

// Options control one simulation run.
type Options struct {
	// Instructions is the measured window length. It must be positive.
	Instructions uint64
	// WarmupFraction adds Instructions*WarmupFraction uncounted warmup
	// instructions before measurement (default 0.25; negative disables).
	WarmupFraction float64
	// WarmupInstructions adds an absolute number of uncounted warmup
	// instructions on top of the fractional warmup. Callers running a
	// synth.Generator must cover its Prologue() here.
	WarmupInstructions uint64
	// Workload supplies the pipeline model's ILP/MLP. When CalibrateIPC
	// is set, ILP is solved instead and only MLP is used.
	Workload pipeline.Workload
	// CalibrateIPC, when positive, solves the workload ILP so the
	// interval model lands on this IPC (the published per-application
	// value). See DESIGN.md: miss rates and mix are measured from the
	// simulation; IPC is anchored to the paper's measurement.
	CalibrateIPC float64
	// Context, when non-nil, aborts an in-flight simulation: the batched
	// run loop polls it between batches (RunReference polls every
	// cancelCheckStride instructions) and returns the context's error.
	// Nil disables cancellation checks.
	Context context.Context
	// BatchSize is the uop buffer length of the batched kernel; 0 means
	// DefaultBatchSize. It is a performance knob only: results are
	// bit-identical for every batch size (the machine equivalence tests
	// enforce this), so it is excluded from all result-cache keys.
	BatchSize int
	// Sampling, when enabled, simulates only periodic detailed windows of
	// the measured stream and extrapolates the counters to the full
	// length (see the Sampling type). Unlike BatchSize it changes result
	// bits, so it participates in every result-cache key. Only the
	// batched Run supports it; RunReference, RunParallel and RunShared
	// reject it.
	Sampling Sampling
	// Span, when non-nil, receives one child span per stage that ran
	// (fast-forward/warmup/detail for sampled and parallel runs,
	// warmup/simulate for exact and shared ones) plus a windows
	// attribute on sampled and parallel runs. Stage wall
	// times additionally feed the speckit_stage_seconds histograms
	// whether or not a span is attached. Like BatchSize it never enters
	// a cache key: observability must not change what is computed.
	Span *obs.Span
}

// cancelCheckStride is how often (in instructions) RunReference polls
// Options.Context; a power of two so the check is a mask, not a divide.
// The batched loop polls between batches instead, which for the default
// batch size is at least as often.
const cancelCheckStride = 8192

// DefaultBatchSize is the uop buffer length used when Options.BatchSize
// is zero. 4096 uops (192 KB) amortize per-batch overheads to noise while
// keeping the buffer well inside L2.
const DefaultBatchSize = 4096

// Result is the outcome of one run.
type Result struct {
	// Counters is the perf-style named counter snapshot.
	Counters *perf.Counters
	// Events are the pipeline-model inputs measured during the window.
	Events pipeline.Events
	// Breakdown is the CPI stack in cycles.
	Breakdown pipeline.Breakdown
	// IPC is instructions per cycle over the measured window.
	IPC float64
	// ILP is the workload ILP used (solved when calibrating).
	ILP float64
	// Calibrated reports whether ILP was solved to hit CalibrateIPC
	// exactly; false means the target was unreachable and the machine ran
	// width-limited.
	Calibrated bool
	// SimRSSBytes is the resident footprint the sampled stream actually
	// touched (pre-extrapolation; see DESIGN.md on footprint scaling).
	SimRSSBytes uint64
	// Sampling describes how the run was sampled and the estimated
	// extrapolation error per headline metric; nil for exact runs.
	Sampling *SamplingStats
	// Parallel describes how a RunParallel run was split into concurrent
	// windows and how long each took; nil for sequential runs.
	Parallel *ParallelStats
}

// Run simulates one uop stream on the machine. The source must produce at
// least the requested number of instructions.
func Run(cfg Config, src trace.Source, opt Options) (*Result, error) {
	if err := checkRun(cfg, opt, ""); err != nil {
		return nil, err
	}
	d := newDriver(cfg, opt, []trace.Source{src}, false, nil)
	if err := d.warmup(); err != nil {
		return nil, err
	}
	sp := opt.Sampling
	if sp.Enabled() && opt.Instructions >= 2*sp.Period {
		return d.sample()
	}
	if err := d.simulate(opt.Instructions, stageSimulate); err != nil {
		return nil, err
	}
	res, err := d.finish(d.cores[0].counts())
	if err != nil {
		return nil, err
	}
	if sp.Enabled() {
		// A stream under two periods has no room for a settle window
		// plus a counted window, so it ran exact.
		res[0].Sampling = &SamplingStats{Period: sp.Period, DetailLen: sp.DetailLen, WarmupLen: sp.WarmupLen, SampledFraction: 1}
	}
	return res[0], nil
}

// core holds the per-stream simulation state.
type core struct {
	hier    *cache.Hierarchy
	unified bool
	unit    *branch.Unit
	tlb     *tlb.TLB
	foot    *mem.Footprint
	kinds   [trace.NumKinds]uint64
	// Load-specific per-level outcome counts
	// (mem_load_uops_retired.lN_hit/miss semantics).
	loadLevel [4]uint64
	// All-access per-level outcomes feeding the pipeline model.
	dataLevel [4]uint64

	// Batched-kernel data-side deduplication: consecutive memory uops to
	// one 4 KB page re-hit the just-promoted DTLB entry and re-set an
	// already-set footprint bit, so translation and footprint tracking
	// are skipped and the TLB hit credited directly. The cache access
	// itself always runs — distinct lines within a page matter. (Fetch
	// deduplication lives in the cache itself: see Cache.FetchHot.)
	dataPage uint64 // last translated page, ^0 = none yet

	// Register-level dedup configuration for the batched sweeps. The
	// sweeps keep the last fetched / last accessed line number in a local
	// and skip the cache entirely on a repeat, crediting the guaranteed
	// hit instead. This is sound only under an idempotent-touch policy at
	// the corresponding level (see TouchIdempotent), so each side carries
	// its own gate; the shifts are the precomputed line-offset widths.
	fetchDedup, dataDedup bool
	fetchShift, dataShift uint

	// Structure-of-arrays scratch for the split sweeps: fetchSweep, which
	// touches every record anyway, classifies kinds with branch-free
	// table lookups, and dataSweep then walks only the memory and branch
	// records — no data-dependent kind tests, which on a mixed stream
	// mispredict almost every record. The memory side is packed densely:
	// memAddr carries each memory uop's data address with the store flag
	// in bit 63 (virtual addresses never occupy the top bit on any real
	// ISA or any generator in the tree), so the data sweep streams an
	// 8-byte array instead of chasing 4-byte indices back into 32-byte
	// records. Branches keep an index list — Resolve needs the whole
	// record. Both arrays are per-core arenas, allocated on first use and
	// reused for every subsequent batch and window.
	memAddr   []uint64
	brIdx     []uint32
	nMem, nBr int
}

// Branch-free kind classification tables for fetchSweep's index-list
// building: an unconditional store plus a table-driven increment replaces
// a compare-and-branch per record.
var (
	kindIsMem    = [trace.NumKinds]uint32{trace.KindLoad: 1, trace.KindStore: 1}
	kindIsBranch = [trace.NumKinds]uint32{trace.KindBranch: 1}
	kindStoreBit = [trace.NumKinds]uint64{trace.KindStore: 1 << 63}
	accessBySBit = [2]cache.AccessKind{cache.AccessLoad, cache.AccessStore}
)

// storeBit flags a store in a packed memAddr entry; the low 63 bits are
// the data address.
const storeBit = uint64(1) << 63

// newCore builds a core on a private hierarchy (l3 nil) or on one
// whose last level is the shared l3. Private hierarchies get the set
// memos wherever the touch policy is idempotent. A shared-L3 eviction
// can back-invalidate a privately cached line between any two accesses,
// so the hit-armed soundness argument behind the register dedups and
// set memos does not hold there: shared cores run with both dedups off
// and no memos, and the batched sweeps still carry the run.
func newCore(cfg Config, l3 *cache.Cache) *core {
	pred := cfg.NewPredictor
	if pred == nil {
		pred = func() branch.Predictor { return branch.NewTournament(14) }
	}
	c := &core{
		unified:    cfg.UnifiedCodePath,
		unit:       branch.NewUnit(pred(), cfg.BTBBits, cfg.RASDepth),
		tlb:        tlb.NewHaswell(),
		foot:       mem.NewFootprint(0, 1<<30, 0),
		dataPage:   ^uint64(0),
		fetchShift: lineShift(cfg.Hierarchy.L1I.LineBytes),
		dataShift:  lineShift(cfg.Hierarchy.L1D.LineBytes),
	}
	if l3 != nil {
		c.hier = cache.NewShared(cfg.Hierarchy, l3)
		return c
	}
	c.hier = cache.NewHierarchy(cfg.Hierarchy)
	if c.fetchDedup = cache.TouchIdempotent(cfg.Hierarchy.L1I.Policy); c.fetchDedup {
		c.hier.L1I().EnableFetchMemo()
	}
	if c.dataDedup = cache.TouchIdempotent(cfg.Hierarchy.L1D.Policy); c.dataDedup {
		c.hier.Cache(cache.L1).EnableFetchMemo()
	}
	return c
}

// agedLevels returns the caches gap aging acts on, in fill-estimate
// order: L1I, L1D, L2, L3.
func (c *core) agedLevels() [4]*cache.Cache {
	return [4]*cache.Cache{c.hier.L1I(), c.hier.Cache(cache.L1), c.hier.Cache(cache.L2), c.hier.Cache(cache.L3)}
}

// counts returns the core's statistics since the last reset, with its
// footprint high-water marks.
func (c *core) counts() Counts {
	return Counts{
		Kinds:       c.kinds,
		LoadLevel:   c.loadLevel,
		DataLevel:   c.dataLevel,
		FetchMisses: c.hier.L1I().Stats().Misses,
		Walks:       c.tlb.Walks(),
		Branch:      c.unit.Stats(),
		RSSBytes:    c.foot.PeakRSS(),
		VSZBytes:    c.foot.VSZ(),
	}
}

// lineShift returns log2 of the (validated, power-of-two) line size.
func lineShift(lineBytes int) uint {
	s := uint(0)
	for 1<<s < lineBytes {
		s++
	}
	return s
}

// step consumes one uop. It returns false when the source is exhausted.
// It is the reference per-uop kernel, kept verbatim for RunReference.
func (c *core) step(src trace.Source, u *trace.Uop) bool {
	if !src.Next(u) {
		return false
	}
	c.process(u)
	return true
}

// process simulates one uop through every component model.
func (c *core) process(u *trace.Uop) {
	c.kinds[u.Kind]++
	if c.unified {
		c.hier.Fetch(u.PC)
	} else if !c.hier.L1I().Access(u.PC, cache.AccessFetch) {
		// Sequential next-line instruction prefetch, as every modern
		// front-end performs; hides straight-line code misses.
		c.hier.L1I().Access(u.PC+64, cache.AccessPrefetch)
	}
	switch u.Kind {
	case trace.KindLoad, trace.KindStore:
		kind := cache.AccessLoad
		if u.Kind == trace.KindStore {
			kind = cache.AccessStore
		}
		level := c.hier.Data(u.Addr, kind)
		c.dataLevel[level]++
		if u.Kind == trace.KindLoad {
			c.loadLevel[level]++
		}
		c.tlb.Translate(u.Addr)
		c.foot.Touch(u.Addr)
	case trace.KindBranch:
		c.unit.Resolve(u)
	}
}

// processBatch simulates a buffer of uops through the batched kernel. It
// produces bit-identical statistics to calling process on each uop in
// order (the equivalence tests enforce this); the speedup comes from the
// cache fast paths (AccessHot/FetchHot with per-set fetch dedup), the
// DTLB page dedup, and — on non-unified machines — sweeping the batch
// once per component instead of once per uop.
func (c *core) processBatch(buf []trace.Uop) {
	if c.unified {
		c.processBatchUnified(buf)
		return
	}
	// Non-unified machines keep the L1I, the data path (L1D/L2/L3, DTLB,
	// footprint) and the branch unit fully disjoint: no component's state
	// is read or written by another's sweep, so processing the batch
	// component-by-component is a pure reordering of commuting updates —
	// bit-identical to the interleaved order, and much kinder to the
	// simulator's own caches and branch predictor. fetchSweep classifies
	// every record into the kind-index lists as it passes, so dataSweep
	// streams only the memory and branch records instead of re-scanning
	// (and re-mispredicting) the whole buffer.
	if cap(c.memAddr) < len(buf) {
		c.memAddr = make([]uint64, len(buf))
		c.brIdx = make([]uint32, len(buf))
	}
	c.fetchSweep(buf)
	c.dataSweep(buf)
}

// fetchSweep runs the instruction-fetch side of a batch on a non-unified
// machine. Under an idempotent-touch L1I policy it deduplicates
// consecutive same-line fetches in a register: within the sweep nothing
// else touches the L1I between two fetches, so after a fetch of line L
// that HIT (leaving L resident with its touch state freshly set), an
// immediately following fetch of L is a guaranteed hit whose repeated
// touch is a no-op — it is answered by a hit credit without probing.
// A miss does not arm the dedup: policies like SRRIP fill at a distant
// re-reference interval, so the follow-up hit's touch genuinely promotes
// the line and must execute.
func (c *core) fetchSweep(buf []trace.Uop) {
	l1i := c.hier.L1I()
	memAddr, brIdx := c.memAddr, c.brIdx
	nm, nb := uint32(0), uint32(0)
	if !c.fetchDedup {
		for i := range buf {
			u := &buf[i]
			k := u.Kind
			c.kinds[k]++
			memAddr[nm] = u.Addr | kindStoreBit[k]
			nm += kindIsMem[k]
			brIdx[nb] = uint32(i)
			nb += kindIsBranch[k]
			if !l1i.FetchHot(u.PC) {
				// Sequential next-line instruction prefetch, as in process.
				l1i.AccessHot(u.PC+64, cache.AccessPrefetch)
			}
		}
		c.nMem, c.nBr = int(nm), int(nb)
		return
	}
	shift := c.fetchShift
	lastLine := ^uint64(0)
	lastOK := false
	credit := uint64(0)
	for i := range buf {
		u := &buf[i]
		k := u.Kind
		c.kinds[k]++
		memAddr[nm] = u.Addr | kindStoreBit[k]
		nm += kindIsMem[k]
		brIdx[nb] = uint32(i)
		nb += kindIsBranch[k]
		line := u.PC >> shift
		if lastOK && line == lastLine {
			credit++
			continue
		}
		// Inlined FetchHot: the set-memo test runs call-free and its
		// hit is credited through the same deferred counter as the
		// register dedup; only memo misses pay the AccessHot call.
		hit := true
		if l1i.MemoHit(u.PC) {
			credit++
		} else if hit = l1i.AccessHot(u.PC, cache.AccessFetch); !hit {
			// Sequential next-line instruction prefetch, as in process.
			l1i.AccessHot(u.PC+64, cache.AccessPrefetch)
		}
		lastLine = line
		lastOK = hit
	}
	c.nMem, c.nBr = int(nm), int(nb)
	l1i.RecordHits(cache.AccessFetch, credit)
}

// dataSweep runs the branch and data sides of a batch on a non-unified
// machine, walking the structure-of-arrays scratch fetchSweep built
// instead of re-scanning the buffer: the memory loop streams the dense
// packed-address array (one 8-byte load per record, no pointer chase
// back into the 32-byte uop buffer). Under an idempotent-touch L1D
// policy consecutive memory uops to one line are deduplicated in a
// register once the line has HIT in the L1D: the hit's touch left the
// line resident with its touch state freshly set, so a same-line
// follow-up is a guaranteed L1 hit whose repeated touch is a no-op,
// and — lines being smaller than pages — a guaranteed repeat of the
// just-translated page. It is answered by crediting the L1 hit, the
// per-level counters and the DTLB hit. A miss does not arm the dedup
// (an SRRIP-style fill inserts cold; the follow-up hit's touch
// genuinely promotes the line and must execute).
func (c *core) dataSweep(buf []trace.Uop) {
	// Branch state is disjoint from the data path's, so draining the
	// branch list first is the same commuting reordering as the sweep
	// split itself.
	for _, i := range c.brIdx[:c.nBr] {
		c.unit.Resolve(&buf[i])
	}
	if !c.dataDedup {
		for _, p := range c.memAddr[:c.nMem] {
			c.processDataAddr(p&^storeBit, p>>63)
		}
		return
	}
	l1d := c.hier.Cache(cache.L1)
	shift := c.dataShift
	lastLine := ^uint64(0)
	// credit[0] accumulates deferred load hits, credit[1] store hits; the
	// store bit from the packed address selects arithmetically so the
	// load-vs-store distinction never costs a branch.
	var credit [2]uint64
	for _, p := range c.memAddr[:c.nMem] {
		s := p >> 63
		addr := p &^ storeBit
		line := addr >> shift
		if line == lastLine {
			c.dataLevel[cache.HitL1]++
			c.loadLevel[cache.HitL1] += 1 - s
			credit[s]++
			c.tlb.RecordL1Hits(1)
			continue
		}
		// The L1-hit common cases stay call-free (set memo, inlined) or
		// a single call (AccessHot); only a real L1D miss takes the
		// hierarchy walk (L2/L3 plus the prefetcher). Memo hits are
		// credited through the same deferred RecordHits counters as the
		// register dedup, which is the statistics update DemandHot
		// would have made.
		kind := accessBySBit[s]
		level := cache.HitL1
		if l1d.MemoHit(addr) {
			credit[s]++
			lastLine = line
		} else if l1d.AccessHot(addr, kind) {
			lastLine = line
		} else {
			level = c.hier.DataHotMiss(addr, kind)
			lastLine = ^uint64(0)
		}
		c.dataLevel[level]++
		c.loadLevel[level] += 1 - s
		if page := addr >> tlb.PageBits; page == c.dataPage {
			c.tlb.RecordL1Hits(1)
		} else {
			c.tlb.Translate(addr)
			c.foot.Touch(addr)
			c.dataPage = page
		}
	}
	l1d.RecordHits(cache.AccessLoad, credit[0])
	l1d.RecordHits(cache.AccessStore, credit[1])
}

// processBatchUnified is the batched kernel for machines whose L1I misses
// share L2/L3 with the data path; fetch and data work stay interleaved in
// uop order, with the same register-level hit-armed dedups as the split
// sweeps. The interleaving is harmless to them: data accesses touch
// L1D/L2/L3 only, never an L1I set, and fetches never touch the L1D.
func (c *core) processBatchUnified(buf []trace.Uop) {
	l1i := c.hier.L1I()
	l1d := c.hier.Cache(cache.L1)
	fLine, dLine := ^uint64(0), ^uint64(0)
	var fetchCredit, creditLoad, creditStore uint64
	for i := range buf {
		u := &buf[i]
		c.kinds[u.Kind]++
		if line := u.PC >> c.fetchShift; c.fetchDedup && line == fLine {
			fetchCredit++
		} else if c.hier.FetchHot(u.PC) == cache.HitL1 {
			fLine = line
		} else {
			fLine = ^uint64(0)
		}
		switch u.Kind {
		case trace.KindLoad, trace.KindStore:
			if line := u.Addr >> c.dataShift; c.dataDedup && line == dLine {
				c.dataLevel[cache.HitL1]++
				if u.Kind == trace.KindLoad {
					c.loadLevel[cache.HitL1]++
					creditLoad++
				} else {
					creditStore++
				}
				c.tlb.RecordL1Hits(1)
			} else if c.processData(u) == cache.HitL1 {
				dLine = line
			} else {
				dLine = ^uint64(0)
			}
		case trace.KindBranch:
			c.unit.Resolve(u)
		}
	}
	l1i.RecordHits(cache.AccessFetch, fetchCredit)
	l1d.RecordHits(cache.AccessLoad, creditLoad)
	l1d.RecordHits(cache.AccessStore, creditStore)
}

// processData runs one memory uop's data-side accesses in the batched
// kernel: hierarchy access, per-level counters, and the page-deduplicated
// DTLB translation and footprint touch. It reports where the access hit
// so callers can arm the same-line register dedup on L1 hits.
func (c *core) processData(u *trace.Uop) cache.HitLevel {
	sbit := kindStoreBit[u.Kind] >> 63
	return c.processDataAddr(u.Addr, sbit)
}

// processDataAddr is processData on an unpacked (address, store-bit)
// pair, the form dataSweep's dense packed-address walk produces; sbit
// is 1 for stores, 0 for loads, and selects counters arithmetically.
func (c *core) processDataAddr(addr, sbit uint64) cache.HitLevel {
	level := c.hier.DataHot(addr, accessBySBit[sbit])
	c.dataLevel[level]++
	c.loadLevel[level] += 1 - sbit
	if page := addr >> tlb.PageBits; page == c.dataPage {
		c.tlb.RecordL1Hits(1)
	} else {
		c.tlb.Translate(addr)
		c.foot.Touch(addr)
		c.dataPage = page
	}
	return level
}

func (c *core) resetStats() {
	c.hier.ResetStats()
	c.unit.ResetStats()
	c.tlb.ResetStats()
	for i := range c.kinds {
		c.kinds[i] = 0
	}
	c.loadLevel = [4]uint64{}
	c.dataLevel = [4]uint64{}
}

// runWindow simulates exactly n instructions through the batched kernel,
// polling ctx between batches. It returns the number completed; done < n
// with a nil error means the source was exhausted.
func (c *core) runWindow(src trace.BatchSource, buf []trace.Uop, n uint64, ctx context.Context) (uint64, error) {
	done := uint64(0)
	for done < n {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return done, err
			}
		}
		got := src.NextBatch(buf[:min(n-done, uint64(len(buf)))])
		if got == 0 {
			return done, nil
		}
		c.processBatch(buf[:got])
		done += uint64(got)
	}
	return done, nil
}

// RunReference simulates one uop stream with the legacy per-uop kernel.
// It is the executable specification the batched Run is tested against:
// both must produce bit-identical Results for the same configuration,
// source and options. It is exported for the equivalence tests and the
// kernel benchmarks; production callers should use Run.
func RunReference(cfg Config, src trace.Source, opt Options) (*Result, error) {
	// The reference kernel is the exact-run executable specification; a
	// sampled reference would have nothing to be a reference for.
	if err := checkRun(cfg, opt, "the reference kernel (use Run)"); err != nil {
		return nil, err
	}
	c := newCore(cfg, nil)
	checkCancel := opt.Context != nil
	if warm := warmupLength(opt); warm > 0 {
		var u trace.Uop
		for i := uint64(0); i < warm; i++ {
			if checkCancel && i&(cancelCheckStride-1) == 0 {
				if err := opt.Context.Err(); err != nil {
					return nil, err
				}
			}
			if !c.step(src, &u) {
				return nil, fmt.Errorf("machine: source exhausted during warmup")
			}
		}
		c.resetStats()
	}
	var u trace.Uop
	for i := uint64(0); i < opt.Instructions; i++ {
		if checkCancel && i&(cancelCheckStride-1) == 0 {
			if err := opt.Context.Err(); err != nil {
				return nil, err
			}
		}
		if !c.step(src, &u) {
			return nil, fmt.Errorf("machine: source exhausted after %d instructions", i)
		}
	}
	return DeriveResult(cfg, opt, c.counts())
}

// warmupLength resolves the warmup policy from the options.
func warmupLength(opt Options) uint64 {
	warmF := opt.WarmupFraction
	if warmF == 0 {
		warmF = 0.25
	}
	if warmF < 0 {
		warmF = 0
	}
	return opt.WarmupInstructions + uint64(float64(opt.Instructions)*warmF)
}
