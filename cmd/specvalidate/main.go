// Command specvalidate audits the calibration quality of the workload
// models: for every application-input pair it compares the simulator's
// measured metrics against the model's targets and reports the worst
// deviations — the quantitative basis for trusting the reproduction.
//
// Usage:
//
//	specvalidate [-suite cpu2017|cpu2006] [-size ref] [-n instructions] [-worst 15]
//	             [-progress] [-cache-dir DIR] [-scenario S]
//	             [-j N] [-trace FILE] [-slow-pair DUR]
//
// Ctrl-C (or SIGTERM) cancels the in-flight campaign through the
// scheduler's context path rather than killing the process mid-write.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	speckit "repro"
	"repro/internal/cliflags"
	"repro/internal/report"
)

// config collects the tool's flags; the embedded Campaign carries the
// ones shared across the speckit tools.
type config struct {
	suite, size string
	n           uint64
	worst       int
	cliflags.Campaign
}

func main() {
	var cfg config
	flag.StringVar(&cfg.suite, "suite", "cpu2017", "suite to validate")
	flag.StringVar(&cfg.size, "size", "ref", "input size")
	flag.Uint64Var(&cfg.n, "n", 200000, "simulated instructions per pair")
	flag.IntVar(&cfg.worst, "worst", 15, "how many worst deviations to list")
	cfg.Campaign.Register(flag.CommandLine)
	flag.Parse()

	ctx, stop := cliflags.SignalContext()
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "specvalidate:", err)
		os.Exit(1)
	}
}

// deviation is one metric's measured-vs-target gap for one pair.
type deviation struct {
	pair, metric     string
	target, measured float64
	score            float64 // normalized severity
}

func run(ctx context.Context, cfg config) error {
	var suite speckit.Suite
	switch strings.ToLower(cfg.suite) {
	case "cpu2017", "cpu17":
		suite = speckit.CPU2017()
	case "cpu2006", "cpu06":
		suite = speckit.CPU2006()
	default:
		return fmt.Errorf("unknown suite %q", cfg.suite)
	}
	var size speckit.InputSize
	switch strings.ToLower(cfg.size) {
	case "test":
		size = speckit.Test
	case "train":
		size = speckit.Train
	case "ref":
		size = speckit.Ref
	default:
		return fmt.Errorf("unknown size %q", cfg.size)
	}

	opt, err := cfg.Campaign.Options(ctx)
	if err != nil {
		return err
	}
	opt.Instructions = cfg.n
	chars, err := speckit.Characterize(suite, size, opt)
	if err != nil {
		return err
	}
	if err := cfg.Campaign.Finish(); err != nil {
		return err
	}

	var devs []deviation
	unreachable := 0
	for i := range chars {
		c := &chars[i]
		m := c.Pair.Model
		if !c.Calibrated {
			unreachable++
		}
		add := func(metric string, target, measured, scale float64) {
			if scale <= 0 {
				scale = 1
			}
			devs = append(devs, deviation{
				pair: c.Pair.Name(), metric: metric,
				target: target, measured: measured,
				score: math.Abs(measured-target) / scale,
			})
		}
		add("IPC", m.TargetIPC, c.IPC, m.TargetIPC)
		add("%loads", m.LoadPct, c.LoadPct, 25)
		add("%stores", m.StorePct, c.StorePct, 10)
		add("%branches", m.BranchPct, c.BranchPct, 15)
		add("misp%", m.MispredictPct, c.MispredictPct, math.Max(m.MispredictPct, 1))
		add("L1%", m.L1MissPct, c.L1MissPct, math.Max(m.L1MissPct, 2))
		add("L2%", m.L2MissPct, c.L2MissPct, math.Max(m.L2MissPct, 10))
		add("L3%", m.L3MissPct, c.L3MissPct, math.Max(m.L3MissPct, 10))
	}

	// Aggregate error per metric.
	agg := report.NewTable(
		fmt.Sprintf("Calibration audit: %s %s (%d pairs, %d unreachable IPC targets)",
			cfg.suite, cfg.size, len(chars), unreachable),
		"Metric", "Mean |err| (norm)", "P95 |err| (norm)", "Max |err| (norm)")
	byMetric := map[string][]float64{}
	order := []string{"IPC", "%loads", "%stores", "%branches", "misp%", "L1%", "L2%", "L3%"}
	for _, d := range devs {
		byMetric[d.metric] = append(byMetric[d.metric], d.score)
	}
	for _, metric := range order {
		scores := byMetric[metric]
		sort.Float64s(scores)
		mean := 0.0
		for _, v := range scores {
			mean += v
		}
		mean /= float64(len(scores))
		p95 := scores[len(scores)*95/100]
		agg.AddRowf(metric, mean, p95, scores[len(scores)-1])
	}
	if err := agg.WriteText(os.Stdout); err != nil {
		return err
	}

	// Worst individual deviations.
	sort.Slice(devs, func(i, j int) bool { return devs[i].score > devs[j].score })
	worst := cfg.worst
	if worst > len(devs) {
		worst = len(devs)
	}
	fmt.Println()
	wt := report.NewTable("Worst deviations", "Pair", "Metric", "Target", "Measured", "Severity")
	for _, d := range devs[:worst] {
		wt.AddRowf(d.pair, d.metric, d.target, d.measured, d.score)
	}
	return wt.WriteText(os.Stdout)
}
