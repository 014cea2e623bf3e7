// Package sweep implements the design-space exploration subsystem:
// cartesian sweep campaigns over machine-configuration axes, scheduled
// differentially through the existing campaign cache tiers, with
// per-cell fidelity escalation and Pareto-knee reports.
//
// A sweep spec names a base machine, a list of axes (parameter x
// values), a pair list and two fidelity tiers. Expand turns the axes
// into a grid of configuration points; Run then executes one campaign
// per point at the cheap screen tier (every grid cell — one point x
// pair combination — is a normal campaign task whose content key is
// derived by core.CampaignKeys, so cells already in the memory cache or
// the content-addressed store are served without simulation), computes
// the per-metric value-vs-cost Pareto frontier across points, re-runs
// exactly the frontier points at the escalate tier, and picks the knee
// of each frontier with the same weighted min-max heuristic
// internal/subset uses for cluster counts (cluster.KneeWeighted).
//
// Everything is deterministic: expansion order, labels, aggregation and
// knee selection are pure functions of the spec, and cell results come
// from the same content-keyed cache tiers as ordinary campaigns — so a
// repeated sweep serves every cell from cache and renders a
// byte-identical report, and a fleet-sharded sweep is bit-identical to
// a single-node one.
package sweep

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/perf"
	"repro/internal/profile"
	"repro/internal/sched"
)

// RateAxis is the scenario pseudo-axis sweeping the rate-mode copy
// count ("rate.copies=1,2,4,8"). It is not a machine.ApplyAxis
// parameter: the copy count leaves the configuration untouched and is
// recorded on the expanded Point instead, turning each grid cell into a
// shared-L3 contention run (core.Options.RateCopies). Rate cells only
// exist at exact fidelity, so specs carrying this axis must screen
// exact and escalate exact or not at all — contention has no analytic
// shortcut, and Validate rejects the combination rather than silently
// dropping it.
const RateAxis = "rate.copies"

// MaxPoints bounds a sweep's grid: axes multiply fast, and a grid this
// size at the analytic screen tier is already hours of work at exact
// fidelity. Specs expanding beyond it are rejected up front.
const MaxPoints = 1024

// Axis is one swept machine-configuration dimension.
type Axis struct {
	// Param is the machine axis parameter (machine.AxisParams):
	// "l2.size", "l3.ways", "line", ... — or the scenario pseudo-axis
	// RateAxis ("rate.copies"), which sweeps the rate-mode copy count
	// instead of a configuration field.
	Param string `json:"param"`
	// Values are the swept settings, in sweep order.
	Values []int64 `json:"values"`
}

// Spec describes one sweep.
type Spec struct {
	// Base is the configuration every axis is applied to; the zero
	// value means the default characterization machine.
	Base machine.Config
	// Axes are the swept dimensions; the grid is their cartesian
	// product, first axis outermost. Empty sweeps just the base point.
	Axes []Axis
	// Pairs are the workloads characterized at every grid point.
	Pairs []profile.Pair
	// Screen is the fidelity tier every cell is first run at
	// (typically machine.FidelityAnalytic; the zero value is exact).
	Screen machine.Fidelity
	// Escalate is the tier the Pareto-frontier points are re-run at
	// (typically machine.FidelitySampled or FidelityExact).
	Escalate machine.Fidelity
	// EscalateOff disables the escalation pass; Escalate == Screen
	// does too (re-running at the same tier would reproduce the same
	// cells).
	EscalateOff bool
	// Metrics are the swept metrics (MetricNames lists the registry);
	// empty means ipc and l3_miss_pct. Each gets its own frontier and
	// knee report.
	Metrics []string
	// SSEWeight scales the normalized metric axis in the knee pick,
	// exactly as internal/subset's SSE weight does: above 1 favours
	// metric quality over configuration cost. 0 means the default 5.
	SSEWeight float64
}

func (s Spec) withDefaults() Spec {
	if s.Base.ClockHz == 0 {
		s.Base = machine.HaswellScaled()
	}
	if len(s.Metrics) == 0 {
		s.Metrics = []string{"ipc", "l3_miss_pct"}
	}
	if s.SSEWeight == 0 {
		s.SSEWeight = 5
	}
	return s
}

// Validate rejects specs no sweep can honor. It is called by Run after
// defaulting; servers call it at submit time for early 4xx rejection.
func (s Spec) Validate() error {
	if len(s.Pairs) == 0 {
		return fmt.Errorf("sweep: spec selects no application-input pairs")
	}
	if s.SSEWeight < 0 {
		return fmt.Errorf("sweep: negative SSE weight %v", s.SSEWeight)
	}
	for _, m := range s.Metrics {
		if _, ok := metricDefs[m]; !ok {
			return fmt.Errorf("sweep: unknown metric %q (supported: %v)", m, MetricNames())
		}
	}
	seen := make(map[string]bool, len(s.Axes))
	for _, ax := range s.Axes {
		if len(ax.Values) == 0 {
			return fmt.Errorf("sweep: axis %q has no values", ax.Param)
		}
		if seen[ax.Param] {
			return fmt.Errorf("sweep: axis %q listed twice", ax.Param)
		}
		seen[ax.Param] = true
		if ax.Param != RateAxis {
			continue
		}
		// Every rate cell is a core scenario at its phase's tier, so
		// core's rules decide: contention only exists at exact fidelity
		// (an analytic screen would silently score contention-free
		// cells), and the copy count is bounded.
		for _, v := range ax.Values {
			if v < 1 {
				return fmt.Errorf("sweep: %s value %d: copy counts start at 1", RateAxis, v)
			}
			if err := validateRateCell(v, "screen", s.Screen); err != nil {
				return err
			}
			if !s.EscalateOff {
				if err := validateRateCell(v, "escalate", s.Escalate); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func validateRateCell(copies int64, phase string, tier machine.Fidelity) error {
	if err := (core.Scenario{Fidelity: tier, RateCopies: int(copies)}).Validate(); err != nil {
		return fmt.Errorf("sweep: axis %s value %d at the %s tier: %w", RateAxis, copies, phase, err)
	}
	return nil
}

// Point is one expanded grid point: a concrete machine configuration
// plus its identifying label.
type Point struct {
	// Index is the point's position in expansion order.
	Index int
	// Label identifies the point deterministically ("l2.size=512KiB,
	// l3.size=4MiB"; "base" for an axis-free sweep).
	Label string
	// Values maps each axis parameter to this point's setting.
	Values map[string]int64
	// Config is the validated machine configuration.
	Config machine.Config
	// RateCopies is the point's rate-mode copy count when the spec
	// sweeps RateAxis; 0 otherwise (single-copy).
	RateCopies int
	// CostBytes is the configuration cost proxy used on every Pareto
	// frontier: total cache capacity, with private levels multiplied by
	// the copy count on rate points.
	CostBytes int64
}

// ConfigCost is the sweep's configuration cost proxy: total cache
// capacity in bytes. Silicon area is overwhelmingly SRAM for the
// parameters the axes expose, so capacity orders design points the way
// an area budget would.
func ConfigCost(cfg machine.Config) int64 { return RateCost(cfg, 1) }

// RateCost extends ConfigCost to rate-mode points: each copy owns
// private L1I/L1D/L2 slices while the inclusive L3 is shared, so
// capacity scales as copies x private + shared. copies <= 1 reproduces
// ConfigCost.
func RateCost(cfg machine.Config, copies int) int64 {
	if copies < 1 {
		copies = 1
	}
	h := cfg.Hierarchy
	private := int64(h.L1I.SizeBytes) + int64(h.L1D.SizeBytes) + int64(h.L2.SizeBytes)
	return private*int64(copies) + int64(h.L3.SizeBytes)
}

// FormatAxisValue renders one axis value the way point labels do:
// byte-sized parameters use exact KiB/MiB suffixes, everything else is
// the plain integer.
func FormatAxisValue(param string, v int64) string {
	if len(param) > 5 && param[len(param)-5:] == ".size" || param == "line" {
		switch {
		case v >= 1<<20 && v%(1<<20) == 0:
			return fmt.Sprintf("%dMiB", v>>20)
		case v >= 1<<10 && v%(1<<10) == 0:
			return fmt.Sprintf("%dKiB", v>>10)
		}
	}
	return fmt.Sprintf("%d", v)
}

// ParseAxis parses the CLI axis syntax "param=v1,v2,..."; values take
// optional KiB/MiB/GiB (or bare K/M/G) binary suffixes. It is the
// inverse of Param + "=" + joined FormatAxisValue.
func ParseAxis(s string) (Axis, error) {
	param, list, ok := strings.Cut(s, "=")
	if !ok {
		return Axis{}, fmt.Errorf("axis %q: want param=v1,v2,...", s)
	}
	ax := Axis{Param: strings.TrimSpace(param)}
	for _, raw := range strings.Split(list, ",") {
		v, err := parseAxisValue(strings.TrimSpace(raw))
		if err != nil {
			return Axis{}, fmt.Errorf("axis %q: %w", s, err)
		}
		ax.Values = append(ax.Values, v)
	}
	if len(ax.Values) == 0 {
		return Axis{}, fmt.Errorf("axis %q: no values", s)
	}
	return ax, nil
}

func parseAxisValue(s string) (int64, error) {
	raw := s
	mult := int64(1)
	lower := strings.ToLower(s)
	for _, suf := range []struct {
		text string
		mult int64
	}{
		{"kib", 1 << 10}, {"mib", 1 << 20}, {"gib", 1 << 30},
		{"k", 1 << 10}, {"m", 1 << 20}, {"g", 1 << 30},
	} {
		if strings.HasSuffix(lower, suf.text) {
			mult = suf.mult
			s = s[:len(s)-len(suf.text)]
			break
		}
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q", s)
	}
	if v > math.MaxInt64/mult || v < math.MinInt64/mult {
		return 0, &ValueRangeError{Value: raw}
	}
	return v * mult, nil
}

// ValueRangeError reports an axis value whose binary suffix scales it
// beyond the int64 range.
type ValueRangeError struct {
	// Value is the value as written, suffix included.
	Value string
}

func (e *ValueRangeError) Error() string {
	return fmt.Sprintf("value %q overflows int64", e.Value)
}

// Expand applies the axes' cartesian product to the base configuration,
// first axis outermost, values in spec order. Every returned point's
// configuration has been validated; the point label is appended to the
// base machine's name so each point owns a distinct result-cache
// keyspace even when an axis value coincides with the base setting.
func Expand(base machine.Config, axes []Axis) ([]Point, error) {
	total := 1
	for _, ax := range axes {
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("sweep: axis %q has no values", ax.Param)
		}
		total *= len(ax.Values)
		if total > MaxPoints {
			return nil, fmt.Errorf("sweep: grid expands beyond %d points", MaxPoints)
		}
	}
	points := make([]Point, 0, total)
	idx := make([]int, len(axes))
	for {
		cfg := base
		values := make(map[string]int64, len(axes))
		label := ""
		copies := 0
		for a, ax := range axes {
			v := ax.Values[idx[a]]
			if ax.Param == RateAxis {
				// Scenario pseudo-axis: the copy count is recorded on
				// the point, not applied to the configuration.
				if v < 1 || v > core.MaxRateCopies {
					return nil, fmt.Errorf("sweep: %s value %d out of range [1,%d]", RateAxis, v, core.MaxRateCopies)
				}
				copies = int(v)
			} else {
				var err error
				cfg, err = machine.ApplyAxis(cfg, ax.Param, v)
				if err != nil {
					return nil, err
				}
			}
			values[ax.Param] = v
			if label != "" {
				label += ","
			}
			label += ax.Param + "=" + FormatAxisValue(ax.Param, v)
		}
		if label == "" {
			label = "base"
		} else {
			cfg.Name = base.Name + "@" + label
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: point %s: %w", label, err)
		}
		points = append(points, Point{
			Index: len(points), Label: label, Values: values,
			Config: cfg, RateCopies: copies,
			CostBytes: RateCost(cfg, copies),
		})
		// Odometer increment, last axis fastest.
		a := len(axes) - 1
		for ; a >= 0; a-- {
			idx[a]++
			if idx[a] < len(axes[a].Values) {
				break
			}
			idx[a] = 0
		}
		if a < 0 {
			return points, nil
		}
	}
}

// --- Metric registry --------------------------------------------------

type metricDef struct {
	pick     func(*core.Characteristics) float64
	maximize bool
}

// metricDefs registers the sweepable metrics. Aggregation across pairs
// follows the paper's convention (core.Aggregate: per-app means, then
// the mean across applications).
var metricDefs = map[string]metricDef{
	"ipc":            {func(c *core.Characteristics) float64 { return c.IPC }, true},
	"exec_seconds":   {func(c *core.Characteristics) float64 { return c.ExecSeconds }, false},
	"l1_miss_pct":    {func(c *core.Characteristics) float64 { return c.L1MissPct }, false},
	"l2_miss_pct":    {func(c *core.Characteristics) float64 { return c.L2MissPct }, false},
	"l3_miss_pct":    {func(c *core.Characteristics) float64 { return c.L3MissPct }, false},
	"mispredict_pct": {func(c *core.Characteristics) float64 { return c.MispredictPct }, false},
	// aggregate_ipc is the rate-mode scaling metric: summed throughput
	// across the contending copies. On single-copy cells it degrades to
	// plain IPC, so a rate.copies axis charts the scaling curve and the
	// copies=1 point anchors it.
	"aggregate_ipc": {func(c *core.Characteristics) float64 {
		if c.Rate != nil {
			return c.Rate.AggregateIPC
		}
		return c.IPC
	}, true},
	// l3_mpki is last-level misses per kilo-instruction — the paper's
	// contention unit. Rate cells report the shared L3's; single-copy
	// cells derive it from the counter snapshot (0 when the tier carries
	// no counters, i.e. analytic).
	"l3_mpki": {func(c *core.Characteristics) float64 {
		if c.Rate != nil {
			return c.Rate.SharedL3MPKI
		}
		if c.Counters == nil {
			return 0
		}
		return 1000 * c.Counters.Ratio(perf.L3Miss, perf.InstRetired)
	}, false},
}

// MetricNames returns the sweepable metric names, sorted.
func MetricNames() []string {
	names := make([]string, 0, len(metricDefs))
	for n := range metricDefs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MetricMaximize reports whether the named metric is
// higher-is-better. Unknown metrics report false.
func MetricMaximize(name string) bool { return metricDefs[name].maximize }

// --- Engine -----------------------------------------------------------

// Runner executes one grid point's campaign. The default is
// core.Characterize; specserved's coordinator substitutes its fleet
// scatter so sharded sweeps reuse the same differential path.
type Runner func(ctx context.Context, pairs []profile.Pair, opt core.Options) ([]core.Characteristics, error)

// CellCounts splits completed cells by satisfying source, mirroring the
// campaign scheduler's tier accounting.
type CellCounts struct {
	Simulated int `json:"simulated"`
	Memory    int `json:"memory"`
	Store     int `json:"store"`
	Remote    int `json:"remote"`
}

func (c *CellCounts) add(p sched.Progress) {
	c.Simulated += p.Done - p.CacheHits - p.Remote
	c.Memory += p.CacheHits - p.StoreHits
	c.Store += p.StoreHits
	c.Remote += p.Remote
}

// Total is the number of cells the counts cover.
func (c CellCounts) Total() int { return c.Simulated + c.Memory + c.Store + c.Remote }

// Progress is one sweep progress snapshot.
type Progress struct {
	// Phase is "screen" or "escalate".
	Phase string `json:"phase"`
	// PointsDone / PointsTotal count grid points in the current phase.
	PointsDone  int `json:"points_done"`
	PointsTotal int `json:"points_total"`
	// CellsDone / CellsTotal count cells across both phases; the total
	// grows when the escalation set is known.
	CellsDone  int `json:"cells_done"`
	CellsTotal int `json:"cells_total"`
	// Screen and Escalate split completed cells by satisfying source.
	Screen   CellCounts `json:"screen"`
	Escalate CellCounts `json:"escalate"`
	// ElapsedMS is wall time since the sweep started.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// Options configure a sweep run.
type Options struct {
	// Base carries the per-campaign options every grid point inherits:
	// cache and store tiers (the differential scheduling substrate; a
	// nil Cache gets one fresh cache shared by the whole sweep),
	// instruction window, parallelism, multiplexing, sampling knob for
	// the sampled tier, and trace. Machine, Fidelity, Context and
	// Progress are overridden per point.
	Base core.Options
	// Run executes one point's campaign (default core.Characterize).
	Run Runner
	// Progress, when non-nil, receives sweep progress snapshots
	// (serially) as cells complete.
	Progress func(Progress)
}

// PointResult is one grid point's aggregated metrics.
type PointResult struct {
	Label     string           `json:"label"`
	Values    map[string]int64 `json:"values,omitempty"`
	CostBytes int64            `json:"cost_bytes"`
	// Metrics are the screen-tier aggregates (per-app means, then the
	// mean across applications) for every swept metric.
	Metrics map[string]float64 `json:"metrics"`
	// Escalated are the escalate-tier aggregates; present only for
	// points on some metric's Pareto frontier when escalation ran.
	Escalated map[string]float64 `json:"escalated,omitempty"`
	// Frontier reports whether the point sits on at least one swept
	// metric's value-vs-cost Pareto frontier.
	Frontier bool `json:"frontier"`
}

// KneePoint is one frontier point in a knee report.
type KneePoint struct {
	Label string `json:"label"`
	// Value is the best available aggregate: the escalate tier's when
	// the point was escalated, the screen tier's otherwise.
	Value float64 `json:"value"`
	// ScreenValue is the screen-tier aggregate the frontier was
	// selected on.
	ScreenValue float64 `json:"screen_value"`
	CostBytes   int64   `json:"cost_bytes"`
	Escalated   bool    `json:"escalated"`
	Knee        bool    `json:"knee"`
}

// KneeReport is one swept metric's Pareto frontier and knee.
type KneeReport struct {
	Metric string `json:"metric"`
	// Maximize reports the metric's direction (the frontier minimizes
	// cost either way).
	Maximize  bool    `json:"maximize"`
	SSEWeight float64 `json:"sse_weight"`
	// Knee is the label of the selected knee point; KneeValue and
	// KneeCost are its coordinates.
	Knee      string  `json:"knee"`
	KneeValue float64 `json:"knee_value"`
	KneeCost  int64   `json:"knee_cost_bytes"`
	// Points is the frontier, sorted by cost ascending.
	Points []KneePoint `json:"points"`
}

// Result is a completed sweep.
type Result struct {
	// Points are the grid points in expansion order.
	Points []PointResult `json:"points"`
	// Knees is one report per swept metric, in spec order.
	Knees []KneeReport `json:"knees"`
	// ScreenTier and EscalateTier name the fidelity tiers the two
	// phases ran at; EscalateTier is empty when no escalation ran.
	ScreenTier   string `json:"screen_tier"`
	EscalateTier string `json:"escalate_tier,omitempty"`
	// Screen and Escalate split each phase's cells by satisfying
	// source — the differential-scheduling scoreboard: a repeated
	// sweep reports zero simulated cells.
	Screen   CellCounts `json:"screen"`
	Escalate CellCounts `json:"escalate"`
	// Cells is the total cell count across both phases.
	Cells int `json:"cells"`
}

// engine carries one run's state.
type engine struct {
	spec   Spec
	opt    Options
	run    Runner
	points []Point
	start  time.Time

	prog Progress
}

// Run executes the sweep. See the package comment for the phase
// structure; errors abort the sweep (context cancellation included).
func Run(ctx context.Context, spec Spec, opt Options) (*Result, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Screen == machine.FidelityAnalytic && spec.Escalate == machine.FidelityAnalytic && !spec.EscalateOff {
		// Same-tier escalation is a no-op; normalize instead of erroring.
		spec.EscalateOff = true
	}
	points, err := Expand(spec.Base, spec.Axes)
	if err != nil {
		return nil, err
	}
	if opt.Base.Cache == nil {
		// One cache for the sweep's lifetime, so points share what they
		// can: a repeated cell is a memory hit, and points that differ
		// only in what the analytic tier predicts (data-cache ways, say)
		// share one stream profile through the cache's side table.
		opt.Base.Cache = sched.NewCache()
	}
	e := &engine{spec: spec, opt: opt, run: opt.Run, points: points, start: time.Now()}
	if e.run == nil {
		e.run = func(ctx context.Context, pairs []profile.Pair, opt core.Options) ([]core.Characteristics, error) {
			opt.Context = ctx
			return core.Characterize(pairs, opt)
		}
	}
	return e.execute(ctx)
}

// tierOptions derives one grid point's campaign options.
func (e *engine) tierOptions(ctx context.Context, pt Point, tier machine.Fidelity) core.Options {
	opt := e.opt.Base
	opt.Machine = pt.Config
	opt.Fidelity = tier
	if tier != machine.FidelitySampled {
		// The base sampling knob applies only to the sampled tier: it
		// does not compose with analytic and would silently turn an
		// exact tier into a sampled one.
		opt.Sampling = machine.Sampling{}
	}
	if pt.RateCopies > 0 {
		// Rate points own their copy count; points without a rate axis
		// inherit whatever the base options carry.
		opt.RateCopies = pt.RateCopies
	}
	opt.Context = ctx
	return opt
}

// runPoint executes one point at one tier, streaming cell progress and
// returning the campaign's final scheduling snapshot for tier
// accounting.
func (e *engine) runPoint(ctx context.Context, pt Point, tier machine.Fidelity, phase string, baseCells int) ([]core.Characteristics, sched.Progress, error) {
	opt := e.tierOptions(ctx, pt, tier)
	var last sched.Progress
	opt.Progress = func(p sched.Progress) {
		last = p
		e.emit(phase, baseCells+p.Done)
	}
	chars, err := e.run(ctx, e.spec.Pairs, opt)
	return chars, last, err
}

func (e *engine) emit(phase string, cellsDone int) {
	if e.opt.Progress == nil {
		return
	}
	p := e.prog
	p.Phase = phase
	p.CellsDone = cellsDone
	p.ElapsedMS = time.Since(e.start).Milliseconds()
	e.opt.Progress(p)
}

func (e *engine) execute(ctx context.Context) (*Result, error) {
	nPairs := len(e.spec.Pairs)
	res := &Result{
		Points:     make([]PointResult, len(e.points)),
		ScreenTier: e.spec.Screen.String(),
	}
	e.prog = Progress{
		Phase:       "screen",
		PointsTotal: len(e.points),
		CellsTotal:  len(e.points) * nPairs,
	}

	// Phase 1: screen every grid point at the cheap tier. Differential
	// scheduling happens inside the campaign engine: each cell's
	// content key is looked up in the memory cache and the
	// content-addressed store before any simulation is dispatched.
	screened := make([][]core.Characteristics, len(e.points))
	cells := 0
	for i, pt := range e.points {
		chars, last, err := e.runPoint(ctx, pt, e.spec.Screen, "screen", cells)
		if err != nil {
			return nil, fmt.Errorf("sweep: point %s: %w", pt.Label, err)
		}
		screened[i] = chars
		cells += nPairs
		e.prog.Screen.add(last)
		e.prog.PointsDone = i + 1
		e.prog.CellsDone = cells
		e.emit("screen", cells)

		metrics := make(map[string]float64, len(e.spec.Metrics))
		for _, m := range e.spec.Metrics {
			metrics[m] = core.Aggregate(chars, metricDefs[m].pick).Mean
		}
		res.Points[i] = PointResult{
			Label: pt.Label, Values: pt.Values, CostBytes: pt.CostBytes,
			Metrics: metrics,
		}
	}

	// Phase 2: per-metric Pareto frontier over (value, cost) across all
	// points, selected on the screen-tier aggregates. cluster.Tradeoff
	// minimizes both objectives, so maximize-metrics negate their value.
	frontier := make(map[string][]cluster.Tradeoff, len(e.spec.Metrics))
	escalate := make(map[int]bool)
	for _, m := range e.spec.Metrics {
		def := metricDefs[m]
		cands := make([]cluster.Tradeoff, len(e.points))
		for i := range e.points {
			v := res.Points[i].Metrics[m]
			if def.maximize {
				v = -v
			}
			cands[i] = cluster.Tradeoff{K: i, SSE: v, Cost: float64(e.points[i].CostBytes)}
		}
		front := cluster.ParetoFront(cands)
		frontier[m] = front
		for _, f := range front {
			res.Points[f.K].Frontier = true
			escalate[f.K] = true
		}
	}

	// Phase 3: escalate the frontier points at the verify tier —
	// differential again, so a frontier point escalated by an earlier
	// sweep costs nothing.
	doEscalate := !e.spec.EscalateOff && e.spec.Escalate != e.spec.Screen && len(escalate) > 0
	escalated := make(map[int][]core.Characteristics)
	if doEscalate {
		res.EscalateTier = e.spec.Escalate.String()
		escIdx := make([]int, 0, len(escalate))
		for i := range escalate {
			escIdx = append(escIdx, i)
		}
		sort.Ints(escIdx)
		e.prog.Phase = "escalate"
		e.prog.PointsDone, e.prog.PointsTotal = 0, len(escIdx)
		e.prog.CellsTotal += len(escIdx) * nPairs
		for n, i := range escIdx {
			chars, last, err := e.runPoint(ctx, e.points[i], e.spec.Escalate, "escalate", cells)
			if err != nil {
				return nil, fmt.Errorf("sweep: escalating point %s: %w", e.points[i].Label, err)
			}
			escalated[i] = chars
			cells += nPairs
			e.prog.Escalate.add(last)
			e.prog.PointsDone = n + 1
			e.prog.CellsDone = cells
			e.emit("escalate", cells)

			vals := make(map[string]float64, len(e.spec.Metrics))
			for _, m := range e.spec.Metrics {
				vals[m] = core.Aggregate(chars, metricDefs[m].pick).Mean
			}
			res.Points[i].Escalated = vals
		}
	}

	// Phase 4: knee per metric over its frontier, using the escalated
	// aggregates where available. Frontier membership stays as screened
	// (the screen picked which points were worth verifying); the knee is
	// chosen on the best values we hold.
	for _, m := range e.spec.Metrics {
		def := metricDefs[m]
		front := frontier[m]
		report := KneeReport{
			Metric: m, Maximize: def.maximize, SSEWeight: e.spec.SSEWeight,
		}
		cands := make([]cluster.Tradeoff, len(front))
		for j, f := range front {
			i := f.K
			v := res.Points[i].Metrics[m]
			if esc := res.Points[i].Escalated; esc != nil {
				v = esc[m]
			}
			sse := v
			if def.maximize {
				sse = -v
			}
			cands[j] = cluster.Tradeoff{K: i, SSE: sse, Cost: float64(e.points[i].CostBytes)}
		}
		knee := cluster.KneeWeighted(cands, e.spec.SSEWeight)
		report.Knee = e.points[knee.K].Label
		report.KneeCost = e.points[knee.K].CostBytes
		kv := knee.SSE
		if def.maximize {
			kv = -kv
		}
		report.KneeValue = kv

		report.Points = make([]KneePoint, len(cands))
		for j, c := range cands {
			i := c.K
			v := c.SSE
			if def.maximize {
				v = -v
			}
			_, wasEscalated := escalated[i]
			report.Points[j] = KneePoint{
				Label:       e.points[i].Label,
				Value:       v,
				ScreenValue: res.Points[i].Metrics[m],
				CostBytes:   e.points[i].CostBytes,
				Escalated:   wasEscalated,
				Knee:        i == knee.K,
			}
		}
		sort.SliceStable(report.Points, func(a, b int) bool {
			return report.Points[a].CostBytes < report.Points[b].CostBytes
		})
		res.Knees = append(res.Knees, report)
	}

	res.Screen = e.prog.Screen
	res.Escalate = e.prog.Escalate
	res.Cells = cells
	return res, nil
}
