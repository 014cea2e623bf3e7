// Command specchar characterizes a SPEC suite on the simulated machine
// and prints per-pair metrics plus suite summaries, mirroring the paper's
// Section IV measurement campaign.
//
// Usage:
//
//	specchar [-suite cpu2017|cpu2006] [-mini all|rate-int|rate-fp|speed-int|speed-fp]
//	         [-size test|train|ref] [-n instructions] [-csv] [-progress]
//	         [-cache-dir DIR] [-j N] [-scenario S]
//	         [-trace FILE] [-slow-pair DUR]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// -trace writes the campaign's span tree (campaign -> pair -> simulation
// stages, with cache-tier outcomes) as a JSONL run manifest; -slow-pair
// warns about pairs whose wall time exceeds the threshold.
//
// -scenario sets what the campaign measures in one string: a fidelity
// tier ("sampled", "analytic"), a sampling knob ("sampling=P/D/W"),
// intra-pair workers ("j-pair=8"), rate copies and a topology
// ("rate=4,topo=4P4E-random"). rate=N characterizes each pair as a
// SPECrate-style run of N copies contending on the shared L3 and
// appends a contention table (aggregate IPC, shared-L3 MPKI,
// back-invalidations); topo= runs each pair on a heterogeneous P/E
// topology and appends the placement runtime distribution.
//
// Ctrl-C (or SIGTERM) cancels the in-flight campaign through the
// scheduler's context path rather than killing the process mid-write.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	speckit "repro"
	"repro/internal/cliflags"
	"repro/internal/profile"
	"repro/internal/report"
)

// config collects the tool's flags; the embedded Campaign carries the
// ones shared across the speckit tools.
type config struct {
	suite, mini, size      string
	n                      uint64
	csv                    bool
	cpuprofile, memprofile string
	cliflags.Campaign
}

func main() {
	var cfg config
	flag.StringVar(&cfg.suite, "suite", "cpu2017", "suite to characterize: cpu2017 or cpu2006")
	flag.StringVar(&cfg.mini, "mini", "all", "mini-suite filter: all, rate-int, rate-fp, speed-int, speed-fp")
	flag.StringVar(&cfg.size, "size", "ref", "input size: test, train or ref")
	flag.Uint64Var(&cfg.n, "n", 300000, "simulated instructions per pair")
	flag.BoolVar(&cfg.csv, "csv", false, "emit CSV instead of aligned text")
	cfg.Campaign.Register(flag.CommandLine)
	flag.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the campaign to FILE")
	flag.StringVar(&cfg.memprofile, "memprofile", "", "write a pprof heap profile to FILE when the campaign finishes")
	flag.Parse()

	ctx, stop := cliflags.SignalContext()
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "specchar:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg config) error {
	if cfg.cpuprofile != "" {
		f, err := os.Create(cfg.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if cfg.memprofile != "" {
		defer func() {
			f, err := os.Create(cfg.memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "specchar: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "specchar: memprofile:", err)
			}
		}()
	}
	apps, err := profile.ParseSuite(cfg.suite)
	if err != nil {
		return err
	}
	if apps, err = profile.FilterMini(apps, cfg.mini); err != nil {
		return err
	}
	size, err := profile.ParseSize(cfg.size)
	if err != nil {
		return err
	}
	opt, err := cfg.Campaign.Options(ctx)
	if err != nil {
		return err
	}
	opt.Instructions = cfg.n
	chars, err := speckit.Characterize(apps, size, opt)
	if err != nil {
		return err
	}
	if err := cfg.Campaign.Finish(); err != nil {
		return err
	}
	sampling := opt.Normalized().Sampling

	t := report.NewTable(
		fmt.Sprintf("Characterization of %s (%s inputs, %d pairs)", cfg.suite, cfg.size, len(chars)),
		"Pair", "Instr (B)", "IPC", "Time (s)", "%Loads", "%Stores", "%Branches",
		"Misp%", "L1%", "L2%", "L3%", "RSS (MiB)", "VSZ (MiB)")
	uncalibrated := 0
	for i := range chars {
		c := &chars[i]
		name := c.Pair.Name()
		execTime := interface{}(c.ExecSeconds)
		if !c.Calibrated {
			// Mark rows whose IPC target was unreachable; a degenerate
			// rate also zeroes ExecSeconds, so render it as unavailable
			// rather than as a misleading 0.000.
			name += " *"
			uncalibrated++
			if c.ExecSeconds == 0 {
				execTime = "n/a"
			}
		}
		t.AddRowf(name, c.InstrBillions, c.IPC, execTime,
			c.LoadPct, c.StorePct, c.BranchPct, c.MispredictPct,
			c.L1MissPct, c.L2MissPct, c.L3MissPct, c.RSSMiB, c.VSZMiB)
	}
	if cfg.csv {
		if err := t.WriteCSV(os.Stdout); err != nil {
			return err
		}
	} else {
		if err := t.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if uncalibrated > 0 {
		fmt.Printf("* %d pair(s) did not reach the model's IPC target (uncalibrated)\n", uncalibrated)
	}
	if sampling.Enabled() {
		// Surface the extrapolation-error estimate so sampled tables are
		// never mistaken for exact ones.
		worst := 0.0
		for i := range chars {
			if sp := chars[i].Sampling; sp != nil {
				for _, e := range []float64{sp.IPCRelErr, sp.L1RelErr, sp.L2RelErr, sp.L3RelErr, sp.MispredictRelErr} {
					if e > worst {
						worst = e
					}
				}
			}
		}
		fmt.Printf("sampled run (knob %s): metrics are extrapolated estimates, worst per-metric relative standard error %.1f%%\n",
			sampling, 100*worst)
	}

	if err := writeRateTable(chars, cfg.csv); err != nil {
		return err
	}
	if err := writeRuntimeTable(chars, cfg.csv); err != nil {
		return err
	}

	fmt.Println()
	sum := report.NewTable("Suite aggregates (per-application means)",
		"Metric", "Mean", "StdDev")
	metrics := []struct {
		name string
		pick func(*speckit.Characteristics) float64
	}{
		{"IPC", func(c *speckit.Characteristics) float64 { return c.IPC }},
		{"% Loads", func(c *speckit.Characteristics) float64 { return c.LoadPct }},
		{"% Stores", func(c *speckit.Characteristics) float64 { return c.StorePct }},
		{"% Branches", func(c *speckit.Characteristics) float64 { return c.BranchPct }},
		{"Mispredict %", func(c *speckit.Characteristics) float64 { return c.MispredictPct }},
		{"L1 miss %", func(c *speckit.Characteristics) float64 { return c.L1MissPct }},
		{"L2 miss %", func(c *speckit.Characteristics) float64 { return c.L2MissPct }},
		{"L3 miss %", func(c *speckit.Characteristics) float64 { return c.L3MissPct }},
		{"RSS (MiB)", func(c *speckit.Characteristics) float64 { return c.RSSMiB }},
	}
	for _, m := range metrics {
		s := speckit.Aggregate(chars, m.pick)
		sum.AddRowf(m.name, s.Mean, s.Std)
	}
	return sum.WriteText(os.Stdout)
}

// writeRateTable prints the shared-L3 contention table when the
// campaign ran in rate mode (Characteristics.Rate set).
func writeRateTable(chars []speckit.Characteristics, csv bool) error {
	any := false
	for i := range chars {
		if chars[i].Rate != nil {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	fmt.Println()
	t := report.NewTable("Rate-mode contention (shared L3)",
		"Pair", "Copies", "Agg IPC", "Per-copy IPC", "L3 MPKI", "Back-inv")
	for i := range chars {
		c := &chars[i]
		if c.Rate == nil {
			continue
		}
		perCopy := 0.0
		for _, v := range c.Rate.PerCopyIPC {
			perCopy += v
		}
		if n := len(c.Rate.PerCopyIPC); n > 0 {
			perCopy /= float64(n)
		}
		t.AddRowf(c.Pair.Name(), c.Rate.Copies, c.Rate.AggregateIPC,
			perCopy, c.Rate.SharedL3MPKI, c.Rate.BackInvalidations)
	}
	if csv {
		return t.WriteCSV(os.Stdout)
	}
	return t.WriteText(os.Stdout)
}

// writeRuntimeTable prints the placement runtime distribution when the
// campaign ran on a heterogeneous topology (Characteristics.Runtime
// set): one row per (pair, mode), so a random placement's multimodal
// runtime is visible directly.
func writeRuntimeTable(chars []speckit.Characteristics, csv bool) error {
	any := false
	for i := range chars {
		if chars[i].Runtime != nil {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	fmt.Println()
	t := report.NewTable("Placement runtime distribution",
		"Pair", "Topology", "Core class", "Weight", "Time (s)", "IPC")
	for i := range chars {
		c := &chars[i]
		if c.Runtime == nil {
			continue
		}
		for _, m := range c.Runtime.Modes {
			t.AddRowf(c.Pair.Name(), c.Runtime.Topology, m.Class,
				m.Weight, m.ExecSeconds, m.IPC)
		}
	}
	if csv {
		return t.WriteCSV(os.Stdout)
	}
	return t.WriteText(os.Stdout)
}
