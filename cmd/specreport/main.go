// Command specreport regenerates every table and figure of the paper's
// evaluation section into an output directory: Tables II-X as text and
// CSV, Figures 1-10 as SVG, plus a summary of paper-vs-measured
// aggregates (the data behind EXPERIMENTS.md).
//
// Usage:
//
//	specreport [-out report] [-n instructions] [-progress] [-cache-dir DIR]
//
// Ctrl-C (or SIGTERM) cancels the in-flight campaign through the
// scheduler's context path rather than killing the process mid-write.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	speckit "repro"
	"repro/internal/cliflags"
	"repro/internal/report"
)

// config collects the tool's flags.
type config struct {
	out      string
	n        uint64
	progress bool
	batch    int
	cacheDir string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.out, "out", "report", "output directory")
	flag.Uint64Var(&cfg.n, "n", 300000, "simulated instructions per pair")
	flag.BoolVar(&cfg.progress, "progress", false, "print a live progress meter (with per-tier cache hits) to stderr")
	flag.IntVar(&cfg.batch, "batch", 0, "simulation kernel batch size in uops (0 = default; results are batch-size independent)")
	flag.StringVar(&cfg.cacheDir, "cache-dir", "", "persistent result-store directory: pair results are saved as checksummed content-addressed records, and repeated runs with the same models, machine and options are re-used bit-identically instead of re-simulated (empty = in-memory cache only)")
	flag.Parse()
	ctx, stop := cliflags.SignalContext()
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "specreport:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg config) error {
	outDir := cfg.out
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// One cache spans every campaign below, so any pair shared between
	// them (or a re-run of this tool within one process) simulates once;
	// with -cache-dir that reuse extends across processes.
	opt := speckit.Options{Instructions: cfg.n, Cache: speckit.NewCache(), BatchSize: cfg.batch, Context: ctx}
	if cfg.progress {
		opt.Progress = speckit.ProgressPrinter(os.Stderr)
	}
	if cfg.cacheDir != "" {
		st, err := speckit.OpenStore(cfg.cacheDir)
		if err != nil {
			return err
		}
		opt.Store = st
	}

	fmt.Println("characterizing CPU2017 at test/train/ref (194 pairs)...")
	all17, err := speckit.CharacterizeAllSizes(speckit.CPU2017(), opt)
	if err != nil {
		return err
	}
	var ref17 []speckit.Characteristics
	for i := range all17 {
		if all17[i].Pair.Size == speckit.Ref {
			ref17 = append(ref17, all17[i])
		}
	}
	fmt.Println("characterizing CPU2006 at ref...")
	ref06, err := speckit.Characterize(speckit.CPU2006(), speckit.Ref, opt)
	if err != nil {
		return err
	}

	fmt.Println("running subsetting methodology...")
	var rate, speed []speckit.Characteristics
	for _, m := range []speckit.MiniSuite{speckit.RateInt, speckit.RateFP} {
		rate = append(rate, speckit.BySuite(ref17, m)...)
	}
	for _, m := range []speckit.MiniSuite{speckit.SpeedInt, speckit.SpeedFP} {
		speed = append(speed, speckit.BySuite(ref17, m)...)
	}
	rateRes, err := speckit.Subset(rate, speckit.SubsetOptions{})
	if err != nil {
		return err
	}
	speedRes, err := speckit.Subset(speed, speckit.SubsetOptions{})
	if err != nil {
		return err
	}

	// Tables.
	tables := map[string]*speckit.Table{
		"table2":  speckit.TableII(all17),
		"table3":  speckit.TableIII(ref17, ref06),
		"table4":  speckit.TableIV(ref17, ref06),
		"table5":  speckit.TableV(ref17, ref06),
		"table6":  speckit.TableVI(ref17, ref06),
		"table7":  speckit.TableVII(ref17, ref06),
		"table9":  speckit.TableIX(ref17),
		"table10": speckit.TableX(rateRes, speedRes),
	}
	for name, t := range tables {
		if err := writeTable(outDir, name, t); err != nil {
			return err
		}
	}

	// Figures 1-6: per-application bar panels.
	figures := map[string][]*speckit.FigureSeries{
		"fig1": speckit.Fig1(ref17), "fig2": speckit.Fig2(ref17),
		"fig3": speckit.Fig3(ref17), "fig4": speckit.Fig4(ref17),
		"fig5": speckit.Fig5(ref17), "fig6": speckit.Fig6(ref17),
		"cpistack": speckit.FigCPIStack(ref17),
	}
	for name, panels := range figures {
		for i, p := range panels {
			suffix := string(rune('a' + i))
			if err := writeFile(outDir, name+suffix+".svg", p.SVG()); err != nil {
				return err
			}
		}
	}

	// Figures 7-10: PCA, loadings, dendrograms, Pareto.
	pc12, pc34 := speckit.Fig7(rateRes)
	svgs := map[string]string{
		"fig7a.svg":  pc12,
		"fig7b.svg":  pc34,
		"fig8.svg":   speckit.Fig8(rateRes),
		"fig9a.svg":  speckit.Fig9("Fig 9a: rate dendrogram", rateRes),
		"fig9b.svg":  speckit.Fig9("Fig 9b: speed dendrogram", speedRes),
		"fig10a.svg": speckit.Fig10("Fig 10a: rate Pareto", rateRes),
		"fig10b.svg": speckit.Fig10("Fig 10b: speed Pareto", speedRes),
	}
	for name, svg := range svgs {
		if err := writeFile(outDir, name, svg); err != nil {
			return err
		}
	}

	// Extensions beyond the paper's exhibits: the PC-space similarity
	// heatmap backing Fig 7's clustering argument, reuse-distance
	// profiles for two contrasting applications, and the future-work
	// phase analysis demo.
	if err := writeFile(outDir, "similarity.svg",
		speckit.SimilarityHeatmapSVG("Pairwise distance in PC space (rate)", rateRes)); err != nil {
		return err
	}
	for _, name := range []string{"505.mcf_r", "525.x264_r"} {
		for _, app := range speckit.CPU2017() {
			if app.Name != name {
				continue
			}
			h, err := speckit.AnalyzeReuse(app, speckit.Ref, 60000)
			if err != nil {
				return err
			}
			if err := writeFile(outDir, "reuse-"+name+".svg",
				speckit.ReuseHistogramSVG(name+" reuse distances", h)); err != nil {
				return err
			}
		}
	}

	// Summary of the headline paper-vs-measured aggregates.
	summary := buildSummary(ref17, ref06, rateRes, speedRes)
	if err := writeFile(outDir, "summary.txt", summary); err != nil {
		return err
	}
	fmt.Print(summary)
	if cfg.progress {
		s := opt.Cache.Stats()
		fmt.Fprintf(os.Stderr, "cache: %d memory hits, %d store hits, %d misses (%.0f%% hit rate)\n",
			s.MemoryHits, s.StoreHits, s.Misses, 100*s.HitRate())
	}
	fmt.Printf("report written to %s\n", outDir)
	return nil
}

func buildSummary(ref17, ref06 []speckit.Characteristics, rateRes, speedRes *speckit.SubsetResult) string {
	var b strings.Builder
	t := report.NewTable("Paper vs measured (ref inputs)", "Quantity", "Paper", "Measured")
	ipc17 := speckit.Aggregate(ref17, func(c *speckit.Characteristics) float64 { return c.IPC })
	ipc06 := speckit.Aggregate(ref06, func(c *speckit.Characteristics) float64 { return c.IPC })
	t.AddRowf("CPU17 mean IPC", 1.457, ipc17.Mean)
	t.AddRowf("CPU06 mean IPC", 1.784, ipc06.Mean)
	mem := speckit.Aggregate(ref17, func(c *speckit.Characteristics) float64 { return c.MemPct() })
	t.AddRowf("CPU17 memory uops %", 33.993, mem.Mean)
	misp := speckit.Aggregate(ref17, func(c *speckit.Characteristics) float64 { return c.MispredictPct })
	t.AddRowf("CPU17 mispredict %", 2.198, misp.Mean)
	l2 := speckit.Aggregate(ref17, func(c *speckit.Characteristics) float64 { return c.L2MissPct })
	t.AddRowf("CPU17 L2 miss %", 32.515, l2.Mean)
	t.AddRowf("Conditional branch share", 0.787, speckit.ConditionalShare(ref17))
	t.AddRowf("Rate subset size", 12, rateRes.ChosenK)
	t.AddRowf("Speed subset size", 10, speedRes.ChosenK)
	t.AddRowf("Rate subset % saving", 57.116, 100*rateRes.Saving())
	t.AddRowf("Speed subset % saving", 62.052, 100*speedRes.Saving())
	t.AddRowf("4-PC variance %", 76.321, 100*rateRes.PCA.VarianceExplained(4))
	// Section V: "required about 10 hours and 53 minutes to completely
	// run all the pairs" (39180 s); Section II: CPU17's instruction count
	// grew 3.830x over CPU06.
	i17 := speckit.Aggregate(ref17, func(c *speckit.Characteristics) float64 { return c.InstrBillions })
	i06 := speckit.Aggregate(ref06, func(c *speckit.Characteristics) float64 { return c.InstrBillions })
	t.AddRowf("CPU17/CPU06 instr ratio", 3.830, i17.Mean/i06.Mean)
	t.WriteText(&b)
	return b.String()
}

func writeTable(dir, name string, t *speckit.Table) error {
	var txt, csv strings.Builder
	if err := t.WriteText(&txt); err != nil {
		return err
	}
	if err := t.WriteCSV(&csv); err != nil {
		return err
	}
	if err := writeFile(dir, name+".txt", txt.String()); err != nil {
		return err
	}
	return writeFile(dir, name+".csv", csv.String())
}

func writeFile(dir, name, content string) error {
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
}
