package speckit

// This file is the benchmark harness of deliverable (d): one benchmark per
// table and figure of the paper's evaluation, each regenerating the
// exhibit and reporting its headline numbers as custom metrics, plus
// ablation benchmarks for the design choices DESIGN.md calls out.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Absolute values come from the simulated scale model; the shapes (who
// wins, by what factor, where crossovers fall) are the reproduction
// targets. EXPERIMENTS.md records paper-vs-measured for every exhibit.

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analytic"
	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/phase"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/rdist"
	"repro/internal/synth"
	"repro/internal/trace"
)

// benchWindow keeps single-CPU bench iterations affordable.
const benchWindow = 40000

var benchOpt = Options{Instructions: benchWindow}

// Cached full characterizations for the analysis-side benches.
var (
	benchOnce  sync.Once
	benchAll17 []Characteristics
	benchRef17 []Characteristics
	benchRef06 []Characteristics
	benchRate  []Characteristics
	benchSpeed []Characteristics
)

func benchFixtures(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		benchAll17, err = CharacterizeAllSizes(CPU2017(), benchOpt)
		if err != nil {
			panic(err)
		}
		for i := range benchAll17 {
			if benchAll17[i].Pair.Size == Ref {
				benchRef17 = append(benchRef17, benchAll17[i])
			}
		}
		benchRef06, err = Characterize(CPU2006(), Ref, benchOpt)
		if err != nil {
			panic(err)
		}
		for _, m := range []MiniSuite{RateInt, RateFP} {
			benchRate = append(benchRate, BySuite(benchRef17, m)...)
		}
		for _, m := range []MiniSuite{SpeedInt, SpeedFP} {
			benchSpeed = append(benchSpeed, BySuite(benchRef17, m)...)
		}
	})
}

// BenchmarkTableII regenerates the per-mini-suite execution summary across
// all 194 application-input pairs and three input sizes.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		chars, err := CharacterizeAllSizes(CPU2017(), benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		t := TableII(chars)
		if t.Rows() != 12 {
			b.Fatalf("Table II rows = %d", t.Rows())
		}
		s := core.SummarizeSuite(chars, RateInt, Ref)
		b.ReportMetric(s.IPC, "rateIntIPC")
		s = core.SummarizeSuite(chars, SpeedFP, Ref)
		b.ReportMetric(s.IPC, "speedFpIPC")
	}
}

func benchComparison(b *testing.B, build func(cpu17, cpu06 []Characteristics) *Table,
	metric string, pick func(*Characteristics) float64) {
	benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := build(benchRef17, benchRef06)
		if t.Rows() != 6 {
			b.Fatalf("rows = %d", t.Rows())
		}
	}
	s17 := Aggregate(benchRef17, pick)
	s06 := Aggregate(benchRef06, pick)
	b.ReportMetric(s17.Mean, "cpu17_"+metric)
	b.ReportMetric(s06.Mean, "cpu06_"+metric)
}

// BenchmarkTableIII regenerates the IPC comparison (paper: 1.457 vs 1.784).
func BenchmarkTableIII(b *testing.B) {
	benchComparison(b, TableIII, "ipc", func(c *Characteristics) float64 { return c.IPC })
}

// BenchmarkTableIV regenerates the instruction-mix comparison.
func BenchmarkTableIV(b *testing.B) {
	benchComparison(b, TableIV, "loadpct", func(c *Characteristics) float64 { return c.LoadPct })
}

// BenchmarkTableV regenerates the footprint comparison (paper: CPU17 RSS
// ~5.3x CPU06).
func BenchmarkTableV(b *testing.B) {
	benchComparison(b, TableV, "rss_gib", func(c *Characteristics) float64 { return c.RSSMiB / 1024 })
}

// BenchmarkTableVI regenerates the cache miss-rate comparison.
func BenchmarkTableVI(b *testing.B) {
	benchComparison(b, TableVI, "l2miss", func(c *Characteristics) float64 { return c.L2MissPct })
}

// BenchmarkTableVII regenerates the branch mispredict comparison
// (paper: 2.198 vs 2.145).
func BenchmarkTableVII(b *testing.B) {
	benchComparison(b, TableVII, "misp", func(c *Characteristics) float64 { return c.MispredictPct })
}

func benchFigure(b *testing.B, fig func([]Characteristics) []*FigureSeries) {
	benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		panels := fig(benchRef17)
		for _, p := range panels {
			if len(p.SVG()) == 0 {
				b.Fatal("empty SVG")
			}
		}
	}
}

// BenchmarkFig1IPC regenerates the per-application IPC panels.
func BenchmarkFig1IPC(b *testing.B) { benchFigure(b, Fig1) }

// BenchmarkFig2MemUops regenerates the memory micro-op breakdown panels.
func BenchmarkFig2MemUops(b *testing.B) { benchFigure(b, Fig2) }

// BenchmarkFig3Branches regenerates the branch-percentage panels.
func BenchmarkFig3Branches(b *testing.B) { benchFigure(b, Fig3) }

// BenchmarkFig4Footprint regenerates the RSS/VSZ panels.
func BenchmarkFig4Footprint(b *testing.B) { benchFigure(b, Fig4) }

// BenchmarkFig5CacheMiss regenerates the cache miss-rate panels.
func BenchmarkFig5CacheMiss(b *testing.B) { benchFigure(b, Fig5) }

// BenchmarkFig6Mispredict regenerates the mispredict-rate panels.
func BenchmarkFig6Mispredict(b *testing.B) { benchFigure(b, Fig6) }

// BenchmarkFig7PCA regenerates the PCA scatter plots and reports the
// paper's 4-PC variance coverage (76.321%).
func BenchmarkFig7PCA(b *testing.B) {
	benchFixtures(b)
	b.ResetTimer()
	var variance float64
	for i := 0; i < b.N; i++ {
		res, err := Subset(benchRate, SubsetOptions{Components: 4})
		if err != nil {
			b.Fatal(err)
		}
		pc12, pc34 := Fig7(res)
		if len(pc12) == 0 || len(pc34) == 0 {
			b.Fatal("empty scatter")
		}
		variance = res.PCA.VarianceExplained(4)
	}
	b.ReportMetric(variance*100, "pc4variance%")
}

// BenchmarkTableIX regenerates the PC-cluster validation table.
func BenchmarkTableIX(b *testing.B) {
	benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t := TableIX(benchRef17); t.Rows() != 6 {
			b.Fatalf("Table IX rows = %d", t.Rows())
		}
	}
}

// BenchmarkFig8Loadings regenerates the factor-loading figure.
func BenchmarkFig8Loadings(b *testing.B) {
	benchFixtures(b)
	res, err := Subset(benchRate, SubsetOptions{Components: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(Fig8(res)) == 0 {
			b.Fatal("empty loadings figure")
		}
	}
}

// BenchmarkFig9Dendrogram regenerates both dendrograms.
func BenchmarkFig9Dendrogram(b *testing.B) {
	benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rate, err := Subset(benchRate, SubsetOptions{})
		if err != nil {
			b.Fatal(err)
		}
		speed, err := Subset(benchSpeed, SubsetOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(Fig9("rate", rate)) == 0 || len(Fig9("speed", speed)) == 0 {
			b.Fatal("empty dendrogram")
		}
	}
}

// BenchmarkFig10Pareto regenerates the Pareto curves and reports the
// chosen cluster counts (paper: rate 12, speed 10).
func BenchmarkFig10Pareto(b *testing.B) {
	benchFixtures(b)
	b.ResetTimer()
	var rateK, speedK int
	for i := 0; i < b.N; i++ {
		rate, err := Subset(benchRate, SubsetOptions{})
		if err != nil {
			b.Fatal(err)
		}
		speed, err := Subset(benchSpeed, SubsetOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(Fig10("rate", rate)) == 0 || len(Fig10("speed", speed)) == 0 {
			b.Fatal("empty Pareto figure")
		}
		rateK, speedK = rate.ChosenK, speed.ChosenK
	}
	b.ReportMetric(float64(rateK), "rateK")
	b.ReportMetric(float64(speedK), "speedK")
}

// BenchmarkTableX regenerates the suggested subset and reports the
// execution-time savings (paper: rate 57.116%, speed 62.052%).
func BenchmarkTableX(b *testing.B) {
	benchFixtures(b)
	b.ResetTimer()
	var rateSave, speedSave float64
	for i := 0; i < b.N; i++ {
		rate, err := Subset(benchRate, SubsetOptions{})
		if err != nil {
			b.Fatal(err)
		}
		speed, err := Subset(benchSpeed, SubsetOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if TableX(rate, speed).Rows() != 2 {
			b.Fatal("Table X shape")
		}
		rateSave, speedSave = rate.Saving(), speed.Saving()
	}
	b.ReportMetric(rateSave*100, "rateSaving%")
	b.ReportMetric(speedSave*100, "speedSaving%")
}

// --- Ablation benches -------------------------------------------------

// ablationPair returns a memory-sensitive pair for hardware ablations.
func ablationPair() profile.Pair {
	for _, p := range profile.CPU2017() {
		if p.Name == "520.omnetpp_r" {
			return p.Expand(profile.Ref)[0]
		}
	}
	panic("missing 520.omnetpp_r")
}

func runAblation(b *testing.B, cfg machine.Config, pair profile.Pair) *machine.Result {
	b.Helper()
	gen, err := synth.New(pair.Model, machine.HaswellScaled().Geometry())
	if err != nil {
		b.Fatal(err)
	}
	res, err := machine.Run(cfg, gen, machine.Options{
		Instructions:       benchWindow,
		WarmupInstructions: gen.Prologue(),
		Workload:           pipeline.Workload{ILP: 2, MLP: pair.Model.MLP},
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationReplacement sweeps LLC replacement policies on a
// capacity-pressured configuration.
func BenchmarkAblationReplacement(b *testing.B) {
	pair := ablationPair()
	for _, pol := range cache.Policies() {
		name, _, _ := strings.Cut(pol.String(), ":")
		b.Run(name, func(b *testing.B) {
			var miss float64
			for i := 0; i < b.N; i++ {
				cfg := machine.HaswellScaled()
				cfg.Hierarchy.L3.SizeBytes = 512 << 10
				cfg.Hierarchy.L3.Policy = pol
				res := runAblation(b, cfg, pair)
				miss = res.Counters.CacheMissPct(3)
			}
			b.ReportMetric(miss, "l3miss%")
		})
	}
}

// BenchmarkAblationPredictor sweeps branch direction predictors on a
// mispredict-heavy workload (541.leela_r).
func BenchmarkAblationPredictor(b *testing.B) {
	var pair profile.Pair
	for _, p := range profile.CPU2017() {
		if p.Name == "541.leela_r" {
			pair = p.Expand(profile.Ref)[0]
		}
	}
	for _, spec := range branch.Predictors() {
		name, _, _ := strings.Cut(spec.String(), ":")
		b.Run(name, func(b *testing.B) {
			var misp float64
			for i := 0; i < b.N; i++ {
				cfg := machine.HaswellScaled()
				cfg.Predictor = spec
				res := runAblation(b, cfg, pair)
				misp = res.Counters.MispredictPct()
			}
			b.ReportMetric(misp, "misp%")
		})
	}
}

// BenchmarkAblationLinkage sweeps clustering linkages and reports the
// chosen subset size under each.
func BenchmarkAblationLinkage(b *testing.B) {
	benchFixtures(b)
	for _, l := range cluster.Linkages() {
		b.Run(l.String(), func(b *testing.B) {
			var k int
			for i := 0; i < b.N; i++ {
				res, err := Subset(benchRate, SubsetOptions{Linkage: l})
				if err != nil {
					b.Fatal(err)
				}
				k = res.ChosenK
			}
			b.ReportMetric(float64(k), "chosenK")
		})
	}
}

// BenchmarkAblationPCs sweeps the number of retained principal components
// and reports subset-size stability.
func BenchmarkAblationPCs(b *testing.B) {
	benchFixtures(b)
	for _, pcs := range []int{2, 3, 4, 6, 8} {
		b.Run(map[bool]string{true: "pc"}[true]+itoa(pcs), func(b *testing.B) {
			var k int
			var variance float64
			for i := 0; i < b.N; i++ {
				res, err := Subset(benchRate, SubsetOptions{Components: pcs})
				if err != nil {
					b.Fatal(err)
				}
				k = res.ChosenK
				variance = res.VarianceExplained
			}
			b.ReportMetric(float64(k), "chosenK")
			b.ReportMetric(variance*100, "variance%")
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationSharedL3 compares a solo run against four co-runners
// sharing the LLC, reporting the contention-induced L3 miss growth (the
// mechanism behind the paper's speed-fp IPC collapse).
func BenchmarkAblationSharedL3(b *testing.B) {
	pair := ablationPair()
	for _, streams := range []int{1, 2, 4} {
		b.Run("streams"+itoa(streams), func(b *testing.B) {
			var miss float64
			for i := 0; i < b.N; i++ {
				cfg := machine.HaswellScaled()
				srcs := make([]trace.Source, streams)
				var prologue uint64
				for sidx := range srcs {
					m := pair.Model
					m.Seed += uint64(sidx)
					gen, err := synth.New(m, cfg.Geometry())
					if err != nil {
						b.Fatal(err)
					}
					prologue = gen.Prologue()
					srcs[sidx] = gen
				}
				res, err := machine.RunShared(cfg, srcs, machine.Options{
					Instructions:       benchWindow,
					WarmupInstructions: prologue,
					Workload:           pipeline.Workload{ILP: 2, MLP: pair.Model.MLP},
				})
				if err != nil {
					b.Fatal(err)
				}
				miss = res.PerCore[0].Counters.CacheMissPct(3)
			}
			b.ReportMetric(miss, "l3miss%")
		})
	}
}

// BenchmarkAblationPrefetch compares prefetchers on the L2 data path for
// a streaming workload (519.lbm_r).
func BenchmarkAblationPrefetch(b *testing.B) {
	var pair profile.Pair
	for _, p := range profile.CPU2017() {
		if p.Name == "519.lbm_r" {
			pair = p.Expand(profile.Ref)[0]
		}
	}
	cases := []struct {
		name string
		pf   cache.Prefetcher
	}{
		{"none", ""},
		{"nextline", "nextline:64:1"},
		{"stride", "stride:64:2"},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var miss float64
			for i := 0; i < b.N; i++ {
				cfg := machine.HaswellScaled()
				cfg.Hierarchy.Prefetcher = tc.pf
				res := runAblation(b, cfg, pair)
				miss = res.Counters.CacheMissPct(2)
			}
			b.ReportMetric(miss, "l2miss%")
		})
	}
}

// BenchmarkCampaignCache measures the memoizing result cache on a repeat
// campaign: one cold pass fills the cache, then every timed pass is
// served entirely from it. Reports the warm hit rate and the cold/warm
// speedup (the acceptance floor is 5x).
func BenchmarkCampaignCache(b *testing.B) {
	suite := CPU2017().Mini(RateInt)
	cache := NewCache()
	opt := benchOpt
	opt.Cache = cache
	coldStart := time.Now()
	cold, err := Characterize(suite, Ref, opt)
	if err != nil {
		b.Fatal(err)
	}
	coldDur := time.Since(coldStart)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm, err := Characterize(suite, Ref, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(warm) != len(cold) {
			b.Fatalf("warm pass returned %d pairs, want %d", len(warm), len(cold))
		}
	}
	b.StopTimer()
	warmDur := b.Elapsed() / time.Duration(b.N)
	stats := cache.Stats()
	b.ReportMetric(100*stats.HitRate(), "hit%")
	if warmDur > 0 {
		b.ReportMetric(float64(coldDur)/float64(warmDur), "speedup")
	}
}

// BenchmarkCharacterizePair measures single-pair simulation throughput.
func BenchmarkCharacterizePair(b *testing.B) {
	pair := ablationPair()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CharacterizePair(pair, benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullPipeline measures the end-to-end paper reproduction: ref
// characterization of both suites plus both subset computations.
func BenchmarkFullPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ref17, err := Characterize(CPU2017(), Ref, benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Characterize(CPU2006(), Ref, benchOpt); err != nil {
			b.Fatal(err)
		}
		var rate []Characteristics
		for _, m := range []MiniSuite{RateInt, RateFP} {
			rate = append(rate, BySuite(ref17, m)...)
		}
		if _, err := Subset(rate, SubsetOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationClusterAlgo compares hierarchical (Ward) clustering
// against k-means at the paper's chosen subset size on the same PC
// scores, reporting each algorithm's SSE.
func BenchmarkAblationClusterAlgo(b *testing.B) {
	benchFixtures(b)
	res, err := Subset(benchRate, SubsetOptions{Components: 4})
	if err != nil {
		b.Fatal(err)
	}
	points := make([][]float64, res.Scores.Rows())
	for i := range points {
		points[i] = res.Scores.Row(i)
	}
	k := res.ChosenK
	b.Run("ward", func(b *testing.B) {
		var sse float64
		for i := 0; i < b.N; i++ {
			d := cluster.Agglomerate(points, cluster.Ward)
			sse = cluster.SSE(points, d.Cut(k))
		}
		b.ReportMetric(sse, "sse")
	})
	b.Run("kmeans", func(b *testing.B) {
		var sse float64
		for i := 0; i < b.N; i++ {
			sse = cluster.KMeans(points, k, 1).SSE
		}
		b.ReportMetric(sse, "sse")
	})
}

// BenchmarkPhaseDetection measures the future-work phase-analysis
// pipeline (Section VI): slice a phased stream, detect phases, report the
// phase count and simulation saving.
func BenchmarkPhaseDetection(b *testing.B) {
	apps := map[string]*profile.Profile{}
	for _, p := range profile.CPU2017() {
		apps[p.Name] = p
	}
	var k int
	var speedup float64
	for i := 0; i < b.N; i++ {
		src, err := phase.NewPhasedSource([]phase.Segment{
			{Model: apps["525.x264_r"].Expand(profile.Ref)[0].Model, Instr: 12000},
			{Model: apps["505.mcf_r"].Expand(profile.Ref)[0].Model, Instr: 12000},
		}, machine.HaswellScaled().Geometry())
		if err != nil {
			b.Fatal(err)
		}
		ivs, err := phase.Slice(src, 4000, 24)
		if err != nil {
			b.Fatal(err)
		}
		res, err := phase.Detect(ivs, phase.Options{})
		if err != nil {
			b.Fatal(err)
		}
		k = res.K
		speedup = res.SpeedupFactor()
	}
	b.ReportMetric(float64(k), "phases")
	b.ReportMetric(speedup, "speedup")
}

// --- Kernel microbenchmarks -------------------------------------------
//
// BenchmarkKernel* isolate the simulation hot path at three depths —
// generator only, cache hierarchy only, full machine — and report
// throughput as a uops/s custom metric. The full-machine depth,
// BenchmarkKernelMachine, lives beside the per-uop reference kernel in
// internal/machine's tests; its peruop/batched pair quantifies the
// batched kernel's speedup (EXPERIMENTS.md records the measured ratios;
// the acceptance floor is 1.5x).

// kernelChunk is the uop count each kernel benchmark iteration processes.
const kernelChunk = 1 << 16

// kernelPair returns the headline pair for the kernel microbenchmarks:
// 508.namd_r is compute-dense with an L1-resident working set, so the
// kernel's own overheads — not simulated-miss handling — dominate, which
// is exactly what these benchmarks isolate.
func kernelPair() profile.Pair {
	for _, p := range profile.CPU2017() {
		if p.Name == "508.namd_r" {
			return p.Expand(profile.Ref)[0]
		}
	}
	panic("missing 508.namd_r")
}

// reportUops converts the elapsed benchmark time into a uops/s metric.
func reportUops(b *testing.B, perIter int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(perIter)*float64(b.N)/s, "uops/s")
	}
}

func kernelGen(b *testing.B, pair profile.Pair) *synth.Generator {
	b.Helper()
	gen, err := synth.New(pair.Model, machine.HaswellScaled().Geometry())
	if err != nil {
		b.Fatal(err)
	}
	return gen
}

// BenchmarkKernelSynth measures trace generation alone: the per-uop Next
// path against the batched NextBatch path.
func BenchmarkKernelSynth(b *testing.B) {
	pair := kernelPair()
	b.Run("peruop", func(b *testing.B) {
		gen := kernelGen(b, pair)
		var u trace.Uop
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < kernelChunk; k++ {
				if !gen.Next(&u) {
					b.Fatal("stream ended")
				}
			}
		}
		reportUops(b, kernelChunk)
	})
	b.Run("batched", func(b *testing.B) {
		gen := kernelGen(b, pair)
		buf := make([]trace.Uop, machine.DefaultBatchSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for done := 0; done < kernelChunk; {
				n := gen.NextBatch(buf)
				if n == 0 {
					b.Fatal("stream ended")
				}
				done += n
			}
		}
		reportUops(b, kernelChunk)
	})
}

// BenchmarkKernelCache measures the cache hierarchy alone on a
// pre-materialized uop stream (generation excluded from the loop),
// through the one probe every kernel uses.
func BenchmarkKernelCache(b *testing.B) {
	pair := kernelPair()
	gen := kernelGen(b, pair)
	uops := make([]trace.Uop, kernelChunk)
	if gen.NextBatch(uops) != len(uops) {
		b.Fatal("short stream")
	}
	cfg := machine.HaswellScaled()
	hier := cache.NewHierarchy(cfg.Hierarchy)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range uops {
			u := &uops[k]
			hier.L1I().Access(u.PC, cache.AccessFetch)
			if u.IsMem() {
				kind := cache.AccessLoad
				if u.Kind == trace.KindStore {
					kind = cache.AccessStore
				}
				hier.Data(u.Addr, kind)
			}
		}
	}
	reportUops(b, kernelChunk)
}

// BenchmarkKernelSampled measures the sampled-simulation fidelity knob:
// one production characterization pair run exact against the same pair
// run sampled at the default knob (machine.DefaultSampling) on a
// 16Mi-instruction stream — the multi-million instruction regime
// sampling exists for. Each side uses the options the core package
// drives it with: the exact run pays the default fractional warmup, the
// sampled run replaces it with its own settle window (WarmupFraction
// -1), so the exact/sampled ns/op ratio is the per-pair wall-clock
// speedup a sampled campaign sees. That ratio is this tentpole's
// acceptance metric (floor: 3x; BENCH_kernel.json records the measured
// baselines and TestKernelBenchBaselines gates the floor in
// bench-smoke). Throughput counts measured instructions only, so
// uops/s also reflects the per-pair cost, not kernel speed.
func BenchmarkKernelSampled(b *testing.B) {
	pair := kernelPair()
	cfg := machine.HaswellScaled()
	const instr = 16 << 20
	run := func(b *testing.B, sp machine.Sampling) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			gen := kernelGen(b, pair)
			opt := machine.Options{
				Instructions:       instr,
				WarmupInstructions: gen.Prologue(),
				Workload:           pipeline.Workload{ILP: 2, MLP: pair.Model.MLP},
				CalibrateIPC:       pair.Model.TargetIPC,
				Sampling:           sp,
			}
			if sp.Enabled() {
				opt.WarmupFraction = -1
			}
			b.StartTimer()
			if _, err := machine.Run(cfg, gen, opt); err != nil {
				b.Fatal(err)
			}
		}
		reportUops(b, instr)
	}
	b.Run("exact", func(b *testing.B) { run(b, machine.Sampling{}) })
	b.Run("sampled", func(b *testing.B) { run(b, machine.DefaultSampling()) })
}

// BenchmarkKernelParallel measures intra-pair parallel simulation: one
// pair run sequentially against the same pair split into 8 concurrent
// windows (machine.RunParallel) on an 8Mi-instruction stream — the
// single-large-pair regime the windowed kernel exists for. The par8
// sub-benchmark reports two metrics: uops/s over wall time (on a
// machine with fewer cores than windows, executor-pool serialization
// makes this near-sequential) and crituops/s over the critical path —
// the slowest single window, i.e. the wall clock an 8-core run
// achieves, which is the honest speedup proxy this box (often 1-2
// CPUs in CI) can measure. The crituops_per_s(par8) /
// uops_per_s(sequential) ratio is the tentpole acceptance metric
// (floor: 2x; BENCH_kernel.json records the measured baselines and
// TestKernelBenchBaselines gates the floor in bench-smoke).
func BenchmarkKernelParallel(b *testing.B) {
	pair := kernelPair()
	cfg := machine.HaswellScaled()
	const instr = 8 << 20
	newSource := func() (trace.Source, error) {
		return synth.New(pair.Model, cfg.Geometry())
	}
	options := func(gen *synth.Generator) machine.Options {
		return machine.Options{
			Instructions:       instr,
			WarmupInstructions: gen.Prologue(),
			Workload:           pipeline.Workload{ILP: 2, MLP: pair.Model.MLP},
			CalibrateIPC:       pair.Model.TargetIPC,
		}
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			gen := kernelGen(b, pair)
			opt := options(gen)
			b.StartTimer()
			if _, err := machine.Run(cfg, gen, opt); err != nil {
				b.Fatal(err)
			}
		}
		reportUops(b, instr)
	})
	b.Run("par8", func(b *testing.B) {
		var crit float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			gen := kernelGen(b, pair)
			opt := options(gen)
			b.StartTimer()
			res, err := machine.RunParallel(cfg, newSource, opt, 8)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if res.Parallel == nil || res.Parallel.Workers != 8 {
				b.Fatalf("expected 8 parallel windows, got %+v", res.Parallel)
			}
			crit += res.Parallel.CriticalPathSeconds()
			b.StartTimer()
		}
		reportUops(b, instr)
		if crit > 0 {
			b.ReportMetric(float64(instr)*float64(b.N)/crit, "crituops/s")
		}
	})
}

// BenchmarkKernelAnalytic measures the analytic fidelity tier on the
// same pair, machine and 16Mi-instruction window as
// BenchmarkKernelSampled: the per-pair cost of predicting the hierarchy
// miss rates from a short reuse-distance profile instead of simulating
// every reference. The analytic/exact uops/s ratio
// (BenchmarkKernelAnalytic over BenchmarkKernelSampled/exact) is the
// analytic tentpole's acceptance metric (floor: 100x; BENCH_kernel.json
// records the measured baselines and TestKernelBenchBaselines gates the
// floor in bench-smoke). The cost is dominated by the fixed profile and
// measure windows, so the speedup grows with the instruction window.
func BenchmarkKernelAnalytic(b *testing.B) {
	pair := kernelPair()
	cfg := machine.HaswellScaled()
	const instr = 16 << 20
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		gen := kernelGen(b, pair)
		opt := machine.Options{
			Instructions:       instr,
			WarmupInstructions: gen.Prologue(),
			Workload:           pipeline.Workload{ILP: 2, MLP: pair.Model.MLP},
			CalibrateIPC:       pair.Model.TargetIPC,
		}
		b.StartTimer()
		if _, err := analytic.Run(cfg, gen, opt); err != nil {
			b.Fatal(err)
		}
	}
	reportUops(b, instr)
}

// BenchmarkReuseDistanceProfile measures the exact reuse-distance
// profiler on a generator stream and reports the predicted
// fully-associative hit rate at the L1 capacity.
func BenchmarkReuseDistanceProfile(b *testing.B) {
	pair := ablationPair()
	var hit float64
	for i := 0; i < b.N; i++ {
		gen, err := synth.New(pair.Model, machine.HaswellScaled().Geometry())
		if err != nil {
			b.Fatal(err)
		}
		prof := rdist.NewProfiler(64)
		var u trace.Uop
		refs := 0
		for refs < 50000 {
			if !gen.Next(&u) {
				b.Fatal("stream ended")
			}
			if u.IsMem() {
				prof.Touch(u.Addr)
				refs++
			}
		}
		hit = prof.Histogram().HitRateAt(512)
	}
	b.ReportMetric(hit*100, "l1hit%")
}
