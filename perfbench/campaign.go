package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/synth"
)

// coldSetupReps is the extra set-ups per pass of the cold jobs: their
// set-up (suite expansion, store creation) takes well under a
// millisecond, so a steady median needs many samples.
const coldSetupReps = 15

// tiers is one pass's fresh result-cache tiers: an empty memory cache
// over a new, empty persistent store.
type tiers struct {
	cache *sched.Cache
	store *store.Store
	dir   string
}

// newTiers creates the cold cache tiers of one pass under dir.
func newTiers(dir string) (*tiers, error) {
	d, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(d)
	if err != nil {
		return nil, err
	}
	return &tiers{cache: sched.NewCache(), store: st, dir: d}, nil
}

func (t *tiers) close() error { return os.RemoveAll(t.dir) }

// campaigner runs the campaigns of one pass. Untraced, a campaign is
// core.Characterize with the tiers attached exactly as the cmd tools
// attach them. Traced, it is the same scheduler (sched.Run) with the
// same content keys (core.CampaignKeys) and tiers, but each pair is
// re-driven through the layers' own entry points — synth.New, then
// machine.Run or analytic.Run — and every layer call is timed in a span.
type campaigner struct {
	tr      *tracer
	tiers   *tiers
	backend *timedBackend
	// workerTime sums workers x wall over the traced campaigns: the
	// worker time the scheduler had to spend.
	workerTime float64
}

func newCampaigner(tr *tracer, t *tiers) *campaigner {
	c := &campaigner{tr: tr, tiers: t}
	if tr != nil {
		c.backend = &timedBackend{tr: tr, inner: t.store}
		t.cache.SetBackend(c.backend, timedCodec{b: c.backend, inner: core.CharacteristicsCodec{}})
	}
	return c
}

// options attaches the pass's tiers to opt.
func (c *campaigner) options(opt core.Options) core.Options {
	opt.Cache = c.tiers.cache
	if c.tr == nil {
		opt.Store = c.tiers.store
	}
	return opt
}

// characterize runs one campaign over pairs.
func (c *campaigner) characterize(ctx context.Context, pairs []profile.Pair, opt core.Options, a at) ([]core.Characteristics, error) {
	opt = c.options(opt)
	opt.Context = ctx
	if c.tr == nil {
		return core.Characterize(pairs, opt)
	}
	opt = opt.Normalized()
	keys := core.CampaignKeys(pairs, opt)
	sp := c.tr.begin("campaign", a)
	defer sp.end()
	c.backend.under(sp.under())
	tasks := make([]sched.Task[core.Characteristics], len(pairs))
	for i := range pairs {
		pair := pairs[i]
		tasks[i] = sched.Task[core.Characteristics]{
			Name: pair.Name(), Key: keys[i],
			Run: func(ctx context.Context) (core.Characteristics, error) {
				return c.pair(ctx, pair, opt, sp.under())
			},
		}
	}
	start := time.Now()
	out, err := sched.Run(ctx, tasks, sched.Options{Workers: opt.Parallelism, Cache: opt.Cache, Progress: opt.Progress})
	c.workerTime += float64(min(opt.Parallelism, len(pairs))) * time.Since(start).Seconds()
	return out, err
}

// pair characterizes one pair through the layers' entry points, mirroring
// core's per-pair path. Rate, topology and intra-pair-parallel scenarios
// run through core.CharacterizePair as one opaque kernel span.
func (c *campaigner) pair(ctx context.Context, p profile.Pair, opt core.Options, a at) (core.Characteristics, error) {
	sp := c.tr.begin("pair", a)
	defer sp.end()
	in := sp.under()
	if opt.RateCopies > 0 || opt.Topology.Enabled() || opt.IntraPairWorkers > 1 {
		name := "machine.shared"
		if opt.IntraPairWorkers > 1 {
			name = "machine.parallel"
		}
		ks := c.tr.begin(name, in)
		ch, err := core.CharacterizePair(p, opt)
		ks.end()
		if err != nil {
			return core.Characteristics{}, err
		}
		return *ch, nil
	}
	m := p.Model
	ns := c.tr.begin("synth.new", in)
	gen, err := synth.New(m, opt.Machine.Geometry())
	ns.end()
	if err != nil {
		return core.Characteristics{}, err
	}
	mopt := machine.Options{
		Instructions:       opt.Instructions,
		WarmupInstructions: gen.Prologue(),
		Workload:           pipeline.Workload{ILP: 2, MLP: m.MLP},
		CalibrateIPC:       m.TargetIPC,
		Context:            ctx,
		BatchSize:          opt.BatchSize,
		Sampling:           opt.Sampling,
	}
	if opt.Sampling.Enabled() {
		mopt.WarmupFraction = -1
	}
	var res *machine.Result
	if opt.Fidelity == machine.FidelityAnalytic {
		as := c.tr.begin("analytic.run", in)
		res, err = analytic.Run(opt.Machine, gen, mopt)
		as.end()
	} else {
		name, counter := "machine.run", "machine.exact_uops"
		if opt.Sampling.Enabled() {
			name, counter = "machine.sampled", "machine.sampled_uops"
		}
		src := &timedSource{g: gen}
		ms := c.tr.begin(name, in)
		res, err = machine.Run(opt.Machine, src, mopt)
		c.tr.record("synth.drain", ms.under(), ms.start, src.busy, map[string]any{"uops": src.uops})
		ms.end()
		c.tr.count("synth.uops", float64(src.uops))
		c.tr.count(counter, float64(src.uops))
	}
	if err != nil {
		return core.Characteristics{}, err
	}
	return derive(p, res, opt), nil
}

// derive builds a pair's Characteristics from a kernel result exactly as
// core does; the output checks catch any drift.
func derive(pair profile.Pair, res *machine.Result, opt core.Options) core.Characteristics {
	m := pair.Model
	counters := res.Counters
	if opt.MultiplexSlots > 0 {
		counters = perf.Multiplex(counters, opt.MultiplexSlots, m.Seed)
	}
	c := core.Characteristics{
		Pair:          pair,
		InstrBillions: m.InstrBillions,
		IPC:           counters.IPC(),
		LoadPct:       counters.LoadPct(),
		StorePct:      counters.StorePct(),
		BranchPct:     counters.BranchPct(),
		MispredictPct: counters.MispredictPct(),
		L1MissPct:     counters.CacheMissPct(1),
		L2MissPct:     counters.CacheMissPct(2),
		L3MissPct:     counters.CacheMissPct(3),
		RSSMiB:        m.RSSMiB,
		VSZMiB:        m.VSZMiB,
		Counters:      counters,
		Breakdown:     res.Breakdown,
		Calibrated:    res.Calibrated,
		Sampling:      res.Sampling,
	}
	if branches := float64(counters.MustValue(perf.AllBranches)); branches > 0 {
		pct := func(name string) float64 { return 100 * float64(counters.MustValue(name)) / branches }
		c.CondPct = pct(perf.CondBranches)
		c.JumpPct = pct(perf.DirectJumps)
		c.CallPct = pct(perf.DirectCalls)
		c.IndirectPct = pct(perf.IndirectJumps)
		c.ReturnPct = pct(perf.Returns)
	}
	if denom := c.IPC * opt.Machine.ClockHz * float64(m.Threads); denom > 0 && !math.IsInf(denom, 0) && !math.IsNaN(denom) {
		c.ExecSeconds = m.InstrBillions * 1e9 / denom
	}
	return c
}

// traceCounts adds the store's and cache's counters to a traced pass's
// per-layer metrics.
func (c *campaigner) traceCounts(set map[string]float64) {
	s := c.tiers.store.Stats()
	set["store.writes"] = float64(s.Writes)
	set["store.hits"] = float64(s.Hits)
	set["store.misses"] = float64(s.Misses)
	set["store.corrupt"] = float64(s.Corrupt)
	set["sched.hit_ratio"] = c.tiers.cache.Stats().HitRate()
}

// taskTime is the worker time spent on the scheduler's tasks of the
// current traced pass: pairs plus their cache-tier calls, i.e. the
// direct children of campaign spans.
func (t *tracer) taskTime() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans[t.first:]
	campaigns := map[int64]bool{}
	for _, s := range spans {
		if s.Name == "campaign" {
			campaigns[s.ID] = true
		}
	}
	total := 0.0
	for _, s := range spans {
		if campaigns[s.Parent] {
			total += s.End - s.Start
		}
	}
	return total
}

// cellDigest hashes results the way the output checks compare them: the
// sorted cell names, each with its core.CharacteristicsCodec encoding.
func cellDigest(cells map[string]core.Characteristics) (string, error) {
	names := make([]string, 0, len(cells))
	for n := range cells {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	var codec core.CharacteristicsCodec
	for _, n := range names {
		data, err := codec.Encode(cells[n])
		if err != nil {
			return "", fmt.Errorf("encoding %s: %w", n, err)
		}
		fmt.Fprintf(h, "%s\t%s\n", n, data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// addCells files results under "prefix/size/pair" cell names.
func addCells(cells map[string]core.Characteristics, prefix string, chars []core.Characteristics) {
	for _, c := range chars {
		cells[prefix+c.Pair.Size.String()+"/"+c.Pair.Name()] = c
	}
}

// rng returns the workload's seeded generator; stream separates the
// draws of different purposes.
func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// shuffled returns a seeded permutation of pairs.
func shuffled(r *rand.Rand, pairs []profile.Pair) []profile.Pair {
	out := append([]profile.Pair(nil), pairs...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// onePerApp returns the first ref pair of each named application, in an
// order drawn with r. The seed sets only the order: drawing which input
// runs moved the work per seed by about 15%, which a spread taken over
// seeds reads as noise.
func onePerApp(r *rand.Rand, apps []string) ([]profile.Pair, error) {
	first := map[string]profile.Pair{}
	for _, p := range profile.ExpandSuite(profile.CPU2017(), profile.Ref) {
		if _, ok := first[p.App.Name]; !ok {
			first[p.App.Name] = p
		}
	}
	out := make([]profile.Pair, 0, len(apps))
	for _, a := range apps {
		p, ok := first[a]
		if !ok {
			return nil, fmt.Errorf("no ref pair for application %q", a)
		}
		out = append(out, p)
	}
	return shuffled(r, out), nil
}
