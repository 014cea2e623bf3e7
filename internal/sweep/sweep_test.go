package sweep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/sweep"
)

// testPairs returns two cheap application-input pairs from different
// applications (so core.Aggregate's per-app means see two apps).
func testPairs() []profile.Pair {
	apps := profile.CPU2017()
	return []profile.Pair{
		apps[0].Expand(profile.Test)[0],
		apps[2].Expand(profile.Test)[0],
	}
}

func testSpec(pairs []profile.Pair) sweep.Spec {
	return sweep.Spec{
		Axes: []sweep.Axis{
			{Param: "l3.size", Values: []int64{1 << 20, 2 << 20}},
			{Param: "l2.size", Values: []int64{128 << 10, 256 << 10}},
		},
		Pairs:    pairs,
		Screen:   machine.FidelityAnalytic,
		Escalate: machine.FidelitySampled,
		Metrics:  []string{"ipc", "l3_miss_pct"},
	}
}

func baseOptions() core.Options {
	return core.Options{Instructions: 20000, Parallelism: 2}
}

func TestExpandGrid(t *testing.T) {
	base := machine.HaswellScaled()
	axes := []sweep.Axis{
		{Param: "l3.size", Values: []int64{1 << 20, 2 << 20}},
		{Param: "l3.ways", Values: []int64{8, 16}},
	}
	points, err := sweep.Expand(base, axes)
	if err != nil {
		t.Fatal(err)
	}
	wantLabels := []string{
		"l3.size=1MiB,l3.ways=8",
		"l3.size=1MiB,l3.ways=16",
		"l3.size=2MiB,l3.ways=8",
		"l3.size=2MiB,l3.ways=16",
	}
	if len(points) != len(wantLabels) {
		t.Fatalf("expanded %d points, want %d", len(points), len(wantLabels))
	}
	for i, want := range wantLabels {
		pt := points[i]
		if pt.Label != want {
			t.Errorf("point %d label = %q, want %q", i, pt.Label, want)
		}
		if pt.Index != i {
			t.Errorf("point %d Index = %d", i, pt.Index)
		}
		if !strings.HasSuffix(pt.Config.Name, "@"+want) {
			t.Errorf("point %d config name %q lacks label suffix", i, pt.Config.Name)
		}
		if err := pt.Config.Validate(); err != nil {
			t.Errorf("point %d config invalid: %v", i, err)
		}
	}
	// Distinct points must own distinct cache keyspaces.
	seen := map[string]string{}
	for _, pt := range points {
		fp := pt.Config.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("points %q and %q share fingerprint %s", prev, pt.Label, fp)
		}
		seen[fp] = pt.Label
	}
	// Cost tracks swept capacity.
	if points[0].CostBytes >= points[2].CostBytes {
		t.Errorf("cost did not grow with l3.size: %d vs %d", points[0].CostBytes, points[2].CostBytes)
	}

	// Axis-free sweep is the single base point, unrenamed.
	single, err := sweep.Expand(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 1 || single[0].Label != "base" || single[0].Config.Name != base.Name {
		t.Errorf("axis-free expansion = %+v", single)
	}

	// A point that fails machine validation names its label.
	_, err = sweep.Expand(base, []sweep.Axis{{Param: "line", Values: []int64{48}}})
	if err == nil || !strings.Contains(err.Error(), "line=48") {
		t.Errorf("invalid point error = %v, want label mention", err)
	}

	// Grids beyond MaxPoints are rejected up front.
	big := make([]int64, sweep.MaxPoints+1)
	for i := range big {
		big[i] = int64(i + 1)
	}
	if _, err := sweep.Expand(base, []sweep.Axis{{Param: "l3.ways", Values: big}}); err == nil {
		t.Error("oversized grid accepted")
	}
}

func TestSpecValidate(t *testing.T) {
	pairs := testPairs()
	run := func(mutate func(*sweep.Spec)) error {
		s := testSpec(pairs)
		mutate(&s)
		_, err := sweep.Run(context.Background(), s, sweep.Options{Base: baseOptions()})
		return err
	}
	if err := run(func(s *sweep.Spec) { s.Pairs = nil }); err == nil {
		t.Error("empty pair list accepted")
	}
	if err := run(func(s *sweep.Spec) { s.Metrics = []string{"cpi"} }); err == nil ||
		!strings.Contains(err.Error(), "unknown metric") {
		t.Errorf("unknown metric error = %v", err)
	}
	if err := run(func(s *sweep.Spec) {
		s.Axes = append(s.Axes, sweep.Axis{Param: "l3.size", Values: []int64{4 << 20}})
	}); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate axis error = %v", err)
	}
	if err := run(func(s *sweep.Spec) { s.Axes[0].Values = nil }); err == nil {
		t.Error("empty axis accepted")
	}
	if err := run(func(s *sweep.Spec) { s.SSEWeight = -1 }); err == nil {
		t.Error("negative SSE weight accepted")
	}
}

func TestMetricNames(t *testing.T) {
	names := sweep.MetricNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("MetricNames not sorted: %v", names)
	}
	for _, want := range []string{"ipc", "l3_miss_pct", "mispredict_pct"} {
		i := sort.SearchStrings(names, want)
		if i >= len(names) || names[i] != want {
			t.Errorf("metric %q missing from registry %v", want, names)
		}
	}
	if !sweep.MetricMaximize("ipc") || sweep.MetricMaximize("l3_miss_pct") {
		t.Error("metric directions wrong")
	}
}

// TestRateAxisExpand: the rate.copies pseudo-axis expands into points
// that carry the copy count out-of-band — the machine geometry is the
// base config at every point, the label folds the copy count into the
// cache keyspace, and the cost proxy multiplies only the private levels.
func TestRateAxisExpand(t *testing.T) {
	base := machine.HaswellScaled()
	points, err := sweep.Expand(base, []sweep.Axis{
		{Param: sweep.RateAxis, Values: []int64{1, 2, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("expanded %d points, want 3", len(points))
	}
	for i, copies := range []int{1, 2, 4} {
		pt := points[i]
		if pt.RateCopies != copies {
			t.Errorf("point %d RateCopies = %d, want %d", i, pt.RateCopies, copies)
		}
		wantLabel := "rate.copies=" + sweep.FormatAxisValue(sweep.RateAxis, int64(copies))
		if pt.Label != wantLabel {
			t.Errorf("point %d label = %q, want %q", i, pt.Label, wantLabel)
		}
		if !strings.HasSuffix(pt.Config.Name, "@"+wantLabel) {
			t.Errorf("point %d config name %q lacks label suffix", i, pt.Config.Name)
		}
		// Copies are a scenario knob, not a hardware knob: the geometry
		// never moves.
		if pt.Config.Hierarchy.L3.SizeBytes != base.Hierarchy.L3.SizeBytes ||
			pt.Config.Hierarchy.L2.SizeBytes != base.Hierarchy.L2.SizeBytes {
			t.Errorf("point %d mutated the cache geometry", i)
		}
		if want := sweep.RateCost(base, copies); pt.CostBytes != want {
			t.Errorf("point %d cost = %d, want %d", i, pt.CostBytes, want)
		}
	}
	// Cost grows with copies (private slices replicate) but sub-linearly
	// (the shared L3 is paid once).
	if points[0].CostBytes >= points[2].CostBytes {
		t.Errorf("cost did not grow with copies: %d vs %d", points[0].CostBytes, points[2].CostBytes)
	}
	if 4*points[0].CostBytes <= points[2].CostBytes {
		t.Errorf("cost scaled super-linearly: 1 copy %d, 4 copies %d — shared L3 double-counted?",
			points[0].CostBytes, points[2].CostBytes)
	}
	// Copy counts at and below one cost the same single copy.
	if sweep.RateCost(base, 0) != sweep.RateCost(base, 1) {
		t.Error("RateCost(0) differs from RateCost(1)")
	}

	// Out-of-range copy counts fail at expansion, naming the bound.
	for _, v := range []int64{0, -1, core.MaxRateCopies + 1} {
		if _, err := sweep.Expand(base, []sweep.Axis{{Param: sweep.RateAxis, Values: []int64{v}}}); err == nil {
			t.Errorf("rate.copies=%d expanded, want range error", v)
		}
	}
}

// TestRateAxisValidate: rate cells only exist on the exact interleaved
// kernel, so specs pairing the axis with analytic screening or sampled
// escalation are rejected at validation, naming the axis.
func TestRateAxisValidate(t *testing.T) {
	pairs := testPairs()
	run := func(mutate func(*sweep.Spec)) error {
		s := sweep.Spec{
			Axes:        []sweep.Axis{{Param: sweep.RateAxis, Values: []int64{1, 2}}},
			Pairs:       pairs,
			Screen:      machine.FidelityExact,
			EscalateOff: true,
			Metrics:     []string{"aggregate_ipc", "l3_mpki"},
		}
		mutate(&s)
		_, err := sweep.Run(context.Background(), s, sweep.Options{Base: baseOptions()})
		return err
	}
	if err := run(func(s *sweep.Spec) { s.Screen = machine.FidelityAnalytic }); err == nil ||
		!strings.Contains(err.Error(), sweep.RateAxis) || !strings.Contains(err.Error(), "screen") {
		t.Errorf("analytic screen over rate axis: err = %v", err)
	}
	if err := run(func(s *sweep.Spec) {
		s.EscalateOff = false
		s.Escalate = machine.FidelitySampled
	}); err == nil || !strings.Contains(err.Error(), "escalate") {
		t.Errorf("sampled escalate over rate axis: err = %v", err)
	}
	if err := run(func(s *sweep.Spec) { s.Axes[0].Values = []int64{0, 2} }); err == nil {
		t.Error("copy count 0 validated")
	}
	if err := run(func(s *sweep.Spec) {
		s.Axes[0].Values = []int64{core.MaxRateCopies + 1}
	}); err == nil {
		t.Error("copy count beyond MaxRateCopies validated")
	}

	// The rate-aware metrics are registered with the right directions.
	names := sweep.MetricNames()
	for _, want := range []string{"aggregate_ipc", "l3_mpki"} {
		i := sort.SearchStrings(names, want)
		if i >= len(names) || names[i] != want {
			t.Errorf("metric %q missing from registry %v", want, names)
		}
	}
	if !sweep.MetricMaximize("aggregate_ipc") || sweep.MetricMaximize("l3_mpki") {
		t.Error("rate metric directions wrong")
	}
}

// TestRateSweepEndToEnd: a two-point copy-count sweep runs through the
// engine on the exact tier, scoring every cell on the interleaved kernel
// and producing the scaling-curve metrics per point.
func TestRateSweepEndToEnd(t *testing.T) {
	pairs := testPairs()
	spec := sweep.Spec{
		Axes:        []sweep.Axis{{Param: sweep.RateAxis, Values: []int64{1, 2}}},
		Pairs:       pairs,
		Screen:      machine.FidelityExact,
		EscalateOff: true,
		Metrics:     []string{"aggregate_ipc", "l3_mpki"},
	}
	res, err := sweep.Run(context.Background(), spec, sweep.Options{Base: baseOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Cells != 2*len(pairs) {
		t.Fatalf("points=%d cells=%d, want 2 points / %d cells", len(res.Points), res.Cells, 2*len(pairs))
	}
	if res.Screen.Simulated != 2*len(pairs) {
		t.Errorf("screen simulated %d cells, want %d", res.Screen.Simulated, 2*len(pairs))
	}
	var agg1, agg2 float64
	for _, p := range res.Points {
		v, ok := p.Metrics["aggregate_ipc"]
		if !ok || v <= 0 {
			t.Errorf("point %s: aggregate_ipc = %v (present=%v)", p.Label, v, ok)
		}
		if _, ok := p.Metrics["l3_mpki"]; !ok {
			t.Errorf("point %s: l3_mpki missing", p.Label)
		}
		switch p.Values[sweep.RateAxis] {
		case 1:
			agg1 = v
		case 2:
			agg2 = v
		default:
			t.Errorf("point %s: unexpected %s value %d", p.Label, sweep.RateAxis, p.Values[sweep.RateAxis])
		}
	}
	// Two copies on an uncontended hierarchy retire roughly twice the
	// aggregate work; any contention only lowers the ratio, so a factor
	// comfortably above 1 proves the copy count reached the kernel.
	if agg2 < agg1*1.2 {
		t.Errorf("aggregate IPC did not scale with copies: 1 copy %.4f, 2 copies %.4f", agg1, agg2)
	}
}

// TestSweepDifferential is the tentpole's core guarantee: a repeated
// sweep simulates zero cells and reproduces a byte-identical knee
// report, and an overlapping sweep simulates only the delta.
func TestSweepDifferential(t *testing.T) {
	dir := t.TempDir()
	pairs := testPairs()
	spec := testSpec(pairs)
	nPairs := len(pairs)
	screenCells := 4 * nPairs

	// First run: cold store, every screen cell simulated.
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt := baseOptions()
	opt.Store = st1
	var progs []sweep.Progress
	res1, err := sweep.Run(context.Background(), spec, sweep.Options{
		Base:     opt,
		Progress: func(p sweep.Progress) { progs = append(progs, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Screen.Simulated != screenCells || res1.Screen.Store != 0 || res1.Screen.Memory != 0 {
		t.Errorf("cold screen counts = %+v, want %d simulated", res1.Screen, screenCells)
	}
	nFrontier := 0
	for _, p := range res1.Points {
		if p.Frontier {
			nFrontier++
		}
	}
	if nFrontier == 0 {
		t.Fatal("no frontier points — escalation untested")
	}
	if res1.Escalate.Simulated != nFrontier*nPairs {
		t.Errorf("cold escalate counts = %+v, want %d simulated", res1.Escalate, nFrontier*nPairs)
	}
	if res1.Cells != screenCells+nFrontier*nPairs {
		t.Errorf("Cells = %d, want %d", res1.Cells, screenCells+nFrontier*nPairs)
	}
	if res1.ScreenTier != "analytic" || res1.EscalateTier != "sampled" {
		t.Errorf("tiers = %q/%q", res1.ScreenTier, res1.EscalateTier)
	}
	// Progress stream covered both phases and ended complete.
	phases := map[string]bool{}
	for _, p := range progs {
		phases[p.Phase] = true
	}
	if !phases["screen"] || !phases["escalate"] {
		t.Errorf("progress phases = %v", phases)
	}
	final := progs[len(progs)-1]
	if final.CellsDone != res1.Cells || final.CellsDone != final.CellsTotal {
		t.Errorf("final progress = %+v, want %d/%d cells", final, res1.Cells, res1.Cells)
	}

	// Second run, fresh process state (new store handle, new memory
	// cache): zero simulations, everything from the store, knee report
	// byte-identical.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt2 := baseOptions()
	opt2.Store = st2
	opt2.Cache = sched.NewCache()
	res2, err := sweep.Run(context.Background(), spec, sweep.Options{Base: opt2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Screen.Simulated != 0 || res2.Escalate.Simulated != 0 {
		t.Errorf("repeat simulated %d+%d cells, want 0",
			res2.Screen.Simulated, res2.Escalate.Simulated)
	}
	if res2.Screen.Store != screenCells || res2.Escalate.Store != nFrontier*nPairs {
		t.Errorf("repeat store counts = %+v / %+v", res2.Screen, res2.Escalate)
	}
	knees1, err := json.Marshal(res1.Knees)
	if err != nil {
		t.Fatal(err)
	}
	knees2, err := json.Marshal(res2.Knees)
	if err != nil {
		t.Fatal(err)
	}
	if string(knees1) != string(knees2) {
		t.Errorf("repeated sweep knee report differs:\n%s\n%s", knees1, knees2)
	}
	if !reflect.DeepEqual(res1.Points, res2.Points) {
		t.Error("repeated sweep point results differ")
	}

	// Overlapping sweep: one more l3.size value. Only the two new
	// points' screen cells simulate; the six old ones hit the store.
	wider := spec
	wider.Axes = []sweep.Axis{
		{Param: "l3.size", Values: []int64{1 << 20, 2 << 20, 4 << 20}},
		{Param: "l2.size", Values: []int64{128 << 10, 256 << 10}},
	}
	st3, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt3 := baseOptions()
	opt3.Store = st3
	opt3.Cache = sched.NewCache()
	res3, err := sweep.Run(context.Background(), wider, sweep.Options{Base: opt3})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Screen.Simulated != 2*nPairs {
		t.Errorf("overlap screen simulated %d cells, want the %d-cell delta",
			res3.Screen.Simulated, 2*nPairs)
	}
	if res3.Screen.Store != screenCells {
		t.Errorf("overlap screen store hits = %d, want %d", res3.Screen.Store, screenCells)
	}
}

// TestSweepCorruptStoreCellDegradesToMiss: damaging one stored cell
// record turns exactly that cell back into a simulated miss; the
// re-simulation repairs the record and the sweep's results are
// unchanged.
func TestSweepCorruptStoreCellDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	pairs := testPairs()
	spec := testSpec(pairs)
	spec.EscalateOff = true
	cells := 4 * len(pairs)

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt := baseOptions()
	opt.Store = st1
	res1, err := sweep.Run(context.Background(), spec, sweep.Options{Base: opt})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Screen.Simulated != cells {
		t.Fatalf("cold run simulated %d, want %d", res1.Screen.Simulated, cells)
	}

	// Cut the segment short inside its last record, mid-write style (the
	// torn tail the internal/store tests cover). Records keep their
	// payload bytes verbatim, so the last payload in the segment marks
	// the last record.
	keys := st1.Keys()
	if len(keys) != cells {
		t.Fatalf("store holds %d records, want %d", len(keys), cells)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("store segments %v (%v), want one", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	cut := -1
	for _, key := range keys {
		rec, ok := st1.Load(key)
		if !ok {
			t.Fatalf("record %s does not load", key)
		}
		if i := bytes.LastIndex(data, rec); i >= 0 && i+len(rec)/3 > cut {
			cut = i + len(rec)/3
		}
	}
	if err := os.Truncate(segs[0], int64(cut)); err != nil {
		t.Fatal(err)
	}
	// The crash was long ago: a record cut short in a segment that
	// changed within the last minute may be a write still landing, and
	// is not counted as corrupt.
	crashed := time.Now().Add(-time.Hour)
	if err := os.Chtimes(segs[0], crashed, crashed); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt2 := baseOptions()
	opt2.Store = st2
	opt2.Cache = sched.NewCache()
	res2, err := sweep.Run(context.Background(), spec, sweep.Options{Base: opt2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Screen.Simulated != 1 || res2.Screen.Store != cells-1 {
		t.Errorf("after corruption: %+v, want 1 simulated / %d store", res2.Screen, cells-1)
	}
	if got := st2.Stats().Corrupt; got != 1 {
		t.Errorf("store corrupt counter = %d, want 1", got)
	}
	if !reflect.DeepEqual(res1.Points, res2.Points) {
		t.Error("re-simulated cell changed the sweep results")
	}

	// The write-through repaired the record: a third run simulates nothing.
	st3, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt3 := baseOptions()
	opt3.Store = st3
	opt3.Cache = sched.NewCache()
	res3, err := sweep.Run(context.Background(), spec, sweep.Options{Base: opt3})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Screen.Simulated != 0 {
		t.Errorf("post-repair run simulated %d cells, want 0", res3.Screen.Simulated)
	}
}

// TestSweepEscalationAgreement gates the escalated (sampled) aggregates
// against their analytic screens through the shared tolerance harness.
// The bounds are sanity bounds, not fidelity gates — the 20k-instruction
// test windows are far below the analytic tier's accuracy regime (the
// real gates live in internal/analytic) — but an escalation that
// disagrees wildly with its screen would make frontier selection
// meaningless.
func TestSweepEscalationAgreement(t *testing.T) {
	pairs := testPairs()
	spec := testSpec(pairs)
	res, err := sweep.Run(context.Background(), spec, sweep.Options{Base: baseOptions()})
	if err != nil {
		t.Fatal(err)
	}
	var g stats.Gate
	checked := 0
	for _, p := range res.Points {
		if p.Escalated == nil {
			continue
		}
		checked++
		g.Check(p.Label+"/ipc", p.Escalated["ipc"], p.Metrics["ipc"],
			stats.Tolerance{Rel: 0.35})
		g.Check(p.Label+"/l3_miss_pct", p.Escalated["l3_miss_pct"], p.Metrics["l3_miss_pct"],
			stats.Tolerance{Rel: 0.35, Abs: 20})
	}
	if checked == 0 {
		t.Fatal("no escalated points to check")
	}
	if !g.OK() {
		t.Error(g.Report())
	}

	// Knee reports use the escalated value for escalated points and mark
	// exactly one knee on the frontier.
	for _, k := range res.Knees {
		knees := 0
		for _, kp := range k.Points {
			if kp.Knee {
				knees++
				if kp.Label != k.Knee || kp.Value != k.KneeValue {
					t.Errorf("metric %s: knee point %+v disagrees with report header %+v", k.Metric, kp, k)
				}
			}
			var pr *sweep.PointResult
			for i := range res.Points {
				if res.Points[i].Label == kp.Label {
					pr = &res.Points[i]
				}
			}
			if pr == nil {
				t.Fatalf("knee point %q not in grid", kp.Label)
			}
			want := pr.Metrics[k.Metric]
			if kp.Escalated {
				want = pr.Escalated[k.Metric]
			}
			if kp.Value != want {
				t.Errorf("metric %s point %s: value %v, want %v (escalated=%v)",
					k.Metric, kp.Label, kp.Value, want, kp.Escalated)
			}
		}
		if knees != 1 {
			t.Errorf("metric %s: %d knee points, want 1", k.Metric, knees)
		}
		for i := 1; i < len(k.Points); i++ {
			if k.Points[i-1].CostBytes > k.Points[i].CostBytes {
				t.Errorf("metric %s: frontier not sorted by cost", k.Metric)
			}
		}
	}
}

// TestSweepSharesOneCache: a sweep without a caller cache runs every
// point against one cache of its own, and its results and cell counts
// equal those of points run cacheless.
func TestSweepSharesOneCache(t *testing.T) {
	spec := testSpec(testPairs())
	seen := map[*sched.Cache]bool{}
	shared, err := sweep.Run(context.Background(), spec, sweep.Options{
		Base: baseOptions(),
		Run: func(ctx context.Context, pairs []profile.Pair, opt core.Options) ([]core.Characteristics, error) {
			seen[opt.Cache] = true
			opt.Context = ctx
			return core.Characterize(pairs, opt)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[nil] {
		t.Fatalf("points ran against %d caches (nil among them: %v), want one shared cache", len(seen), seen[nil])
	}
	cacheless, err := sweep.Run(context.Background(), spec, sweep.Options{
		Base: baseOptions(),
		Run: func(ctx context.Context, pairs []profile.Pair, opt core.Options) ([]core.Characteristics, error) {
			opt.Cache, opt.Context = nil, ctx
			return core.Characterize(pairs, opt)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(shared)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(cacheless)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("shared-cache sweep differs from a cacheless one:\n%s\n%s", a, b)
	}
}
