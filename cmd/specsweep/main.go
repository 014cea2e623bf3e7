// Command specsweep explores the machine design space: it expands
// cartesian axes over cache-hierarchy parameters into a grid of machine
// configurations, characterizes the chosen workloads at every grid
// point (screening at a cheap fidelity tier, escalating the
// Pareto-frontier points to a higher one), and prints the grid plus a
// knee report per swept metric.
//
// Usage:
//
//	specsweep -axis l3.size=1MiB,2MiB,4MiB [-axis l2.size=256KiB,512KiB]
//	          [-suite cpu2017] [-mini rate-int] [-size test] [-n 300000]
//	          [-screen analytic] [-escalate sampled|exact|off]
//	          [-metrics ipc,l3_miss_pct] [-sse-weight 5] [-csv]
//	          [-addr http://host:8217]
//	          [-cache-dir DIR] [-scenario sampling=P/D/W] [-j N] [-progress]
//
// Without -addr the sweep runs in-process: the -cache-dir store makes
// it differential, so re-running a sweep (or a wider one sharing grid
// points) simulates only the missing cells. With -addr the sweep is
// submitted to a specserved instance (single node or fleet coordinator)
// over /v1/sweeps and the progress meter follows the server's SSE
// stream.
//
// Both modes describe the sweep as one server.SweepSpec and resolve it
// the same way (server.SweepSpec.Resolve), so they sweep the same cells.
//
// -scenario takes only the sampling knob (sampling=default|P/D/W, or
// the "sampled" token): it sets the sampled tier's window geometry. The
// tiers are -screen and -escalate, and copy counts are swept with
// -axis rate.copies, so the other scenario knobs are rejected.
//
// Axis values accept KiB/MiB/GiB suffixes; known parameters are listed
// by -axis help. Cells simulated vs served from cache are reported on
// stderr after the tables.
//
// Beyond the machine parameters, the scenario pseudo-axis
// "rate.copies" sweeps the rate-mode copy count — each grid cell
// becomes an N-copy shared-L3 contention run — charting the
// contention knee directly:
//
//	specsweep -axis rate.copies=1,2,4,8 -screen exact -escalate off \
//	          -metrics aggregate_ipc,l3_mpki
//
// Rate cells only exist at exact fidelity, so a rate axis requires
// -screen exact and -escalate exact (or off).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	speckit "repro"
	"repro/internal/client"
	"repro/internal/cliflags"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/sweep"
)

type config struct {
	addr              string
	suite, mini, size string
	n                 uint64
	axes              axisFlags
	screen, escalate  string
	metrics           string
	sseWeight         float64
	csv               bool
	cliflags.Campaign
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "", "submit to this specserved base URL instead of sweeping in-process")
	flag.StringVar(&cfg.suite, "suite", "cpu2017", "suite to sweep: cpu2017 or cpu2006")
	flag.StringVar(&cfg.mini, "mini", "rate-int", "mini-suite filter: all, rate-int, rate-fp, speed-int, speed-fp")
	flag.StringVar(&cfg.size, "size", "test", "input size: test, train or ref")
	flag.Uint64Var(&cfg.n, "n", 300000, "simulated instructions per cell")
	flag.Var(&cfg.axes, "axis", "swept axis as param=v1,v2,... (repeatable; \"-axis help\" lists parameters)")
	flag.StringVar(&cfg.screen, "screen", "analytic", "screening fidelity tier: analytic, sampled or exact")
	flag.StringVar(&cfg.escalate, "escalate", "sampled", "escalation tier for frontier points: sampled, exact, analytic or off")
	flag.StringVar(&cfg.metrics, "metrics", "", "comma-separated swept metrics (default ipc,l3_miss_pct)")
	flag.Float64Var(&cfg.sseWeight, "sse-weight", 0, "knee selection weight on the metric axis (default 5)")
	flag.BoolVar(&cfg.csv, "csv", false, "emit CSV instead of aligned text")
	cfg.Campaign.Register(flag.CommandLine)
	flag.Parse()

	ctx, stop := cliflags.SignalContext()
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "specsweep:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg config) error {
	res, err := sweepResult(ctx, cfg)
	if err != nil {
		return err
	}
	if err := render(os.Stdout, cfg, res); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "specsweep: %d cells: screen %s", res.Cells, countsLine(res.Screen))
	if res.EscalateTier != "" {
		fmt.Fprintf(os.Stderr, ", escalate(%s) %s", res.EscalateTier, countsLine(res.Escalate))
	}
	fmt.Fprintln(os.Stderr)
	return nil
}

// sweepResult builds the sweep spec the flags describe and runs it:
// submitted to -addr, or resolved and swept in-process.
func sweepResult(ctx context.Context, cfg config) (*sweep.Result, error) {
	spec, err := cfg.sweepSpec()
	if err != nil {
		return nil, err
	}
	if cfg.addr != "" {
		return runServer(ctx, cfg, spec)
	}
	return runLocal(ctx, cfg, spec)
}

// sweepSpec is the one description of the sweep both modes run. Of the
// -scenario knobs only sampling applies; the others are rejected here,
// before the modes split.
func (cfg config) sweepSpec() (server.SweepSpec, error) {
	if len(cfg.axes) == 0 {
		return server.SweepSpec{}, fmt.Errorf("no -axis given; known parameters: %s", axisParamList())
	}
	sc, err := speckit.ParseScenario(cfg.Scenario)
	if err != nil {
		return server.SweepSpec{}, err
	}
	if sc.Fidelity == speckit.FidelityAnalytic || sc.IntraPairWorkers > 1 || sc.RateCopies > 1 || sc.Topology.Enabled() {
		return server.SweepSpec{}, fmt.Errorf("-scenario %q: a sweep takes only the sampling knob; "+
			"set tiers with -screen and -escalate, and sweep copy counts with -axis %s=1,2,4",
			cfg.Scenario, sweep.RateAxis)
	}
	var metrics []string
	if cfg.metrics != "" {
		for _, m := range strings.Split(cfg.metrics, ",") {
			metrics = append(metrics, strings.TrimSpace(m))
		}
	}
	return server.SweepSpec{
		Suite: cfg.suite, Mini: cfg.mini, Size: cfg.size,
		Instructions: cfg.n,
		Axes:         []sweep.Axis(cfg.axes),
		Screen:       cfg.screen,
		Escalate:     cfg.escalate,
		Sampling:     sc.Sampling.String(),
		Metrics:      metrics,
		SSEWeight:    cfg.sseWeight,
	}, nil
}

// runLocal resolves the spec on top of the shared campaign flags
// (cache-dir store tier, -j, -trace) and sweeps in-process.
func runLocal(ctx context.Context, cfg config, spec server.SweepSpec) (*sweep.Result, error) {
	base, err := cfg.Campaign.Options(ctx)
	if err != nil {
		return nil, err
	}
	sspec, opt, err := spec.Resolve(base)
	if err != nil {
		return nil, err
	}
	sweepOpt := sweep.Options{Base: opt}
	if cfg.Progress {
		sweepOpt.Progress = progressMeter()
	}
	res, err := sweep.Run(ctx, sspec, sweepOpt)
	if err != nil {
		return nil, err
	}
	return res, cfg.Campaign.Finish()
}

// runServer submits the sweep over /v1/sweeps; with -progress it
// follows the SSE stream, otherwise it waits server-side.
func runServer(ctx context.Context, cfg config, spec server.SweepSpec) (*sweep.Result, error) {
	cl := client.New(cfg.addr)
	var st server.SweepStatus
	var err error
	if cfg.Progress {
		if st, err = cl.SubmitSweep(ctx, spec); err != nil {
			return nil, err
		}
		meter := progressMeter()
		err = cl.SweepEvents(ctx, st.ID, func(ev client.Event) error {
			if ev.Name == "progress" {
				if p, perr := ev.SweepProgress(); perr == nil {
					meter(p)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if st, err = cl.Sweep(ctx, st.ID, true); err != nil {
			return nil, err
		}
	} else if st, err = cl.SubmitSweepWait(ctx, spec); err != nil {
		return nil, err
	}
	if st.Status != server.StatusDone {
		return nil, fmt.Errorf("sweep %s finished %s: %s", st.ID, st.Status, st.Error)
	}
	if st.Result == nil {
		return nil, fmt.Errorf("sweep %s returned no result", st.ID)
	}
	return st.Result, nil
}

func progressMeter() func(sweep.Progress) {
	return func(p sweep.Progress) {
		fmt.Fprintf(os.Stderr, "\rspecsweep: %-8s points %d/%d  cells %d/%d   ",
			p.Phase, p.PointsDone, p.PointsTotal, p.CellsDone, p.CellsTotal)
		if p.CellsDone == p.CellsTotal {
			fmt.Fprintln(os.Stderr)
		}
	}
}

// render prints the grid table and one knee table per swept metric.
func render(w io.Writer, cfg config, res *sweep.Result) error {
	metrics := make([]string, 0, len(res.Knees))
	for _, k := range res.Knees {
		metrics = append(metrics, k.Metric)
	}
	escalated := res.EscalateTier != ""

	headers := []string{"Point", "Cost"}
	for _, m := range metrics {
		headers = append(headers, m)
		if escalated {
			headers = append(headers, m+" ("+res.EscalateTier+")")
		}
	}
	headers = append(headers, "Frontier")
	grid := report.NewTable(
		fmt.Sprintf("Design-space grid (%d points, screen tier %s)", len(res.Points), res.ScreenTier),
		headers...)
	for i := range res.Points {
		pt := &res.Points[i]
		row := []any{pt.Label, formatBytes(pt.CostBytes)}
		for _, m := range metrics {
			row = append(row, pt.Metrics[m])
			if escalated {
				if v, ok := pt.Escalated[m]; ok {
					row = append(row, v)
				} else {
					row = append(row, "-")
				}
			}
		}
		mark := ""
		if pt.Frontier {
			mark = "*"
		}
		row = append(row, mark)
		grid.AddRowf(row...)
	}
	tables := []*report.Table{grid}

	for _, k := range res.Knees {
		dir := "minimize"
		if k.Maximize {
			dir = "maximize"
		}
		t := report.NewTable(
			fmt.Sprintf("Knee report: %s (%s, sse-weight %g) -> %s", k.Metric, dir, k.SSEWeight, k.Knee),
			"Frontier point", "Value", "Screen value", "Cost", "Escalated", "Knee")
		for _, p := range k.Points {
			knee := ""
			if p.Knee {
				knee = "<=="
			}
			esc := ""
			if p.Escalated {
				esc = "yes"
			}
			t.AddRowf(p.Label, p.Value, p.ScreenValue, formatBytes(p.CostBytes), esc, knee)
		}
		tables = append(tables, t)
	}

	for i, t := range tables {
		if i > 0 && !cfg.csv {
			fmt.Fprintln(w)
		}
		var err error
		if cfg.csv {
			err = t.WriteCSV(w)
		} else {
			err = t.WriteText(w)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func countsLine(c sweep.CellCounts) string {
	return fmt.Sprintf("simulated=%d memory=%d store=%d remote=%d", c.Simulated, c.Memory, c.Store, c.Remote)
}

func formatBytes(b int64) string {
	switch {
	case b >= 1<<30 && b%(1<<30) == 0:
		return fmt.Sprintf("%dGiB", b>>30)
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", b>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", b>>10)
	default:
		return strconv.FormatInt(b, 10)
	}
}

// axisParamList names every -axis parameter: the machine axes plus the
// rate-mode scenario pseudo-axis.
func axisParamList() string {
	return strings.Join(append(machine.AxisParams(), sweep.RateAxis), ", ")
}

// axisFlags collects repeatable -axis param=v1,v2,... flags.
type axisFlags []sweep.Axis

func (a *axisFlags) String() string {
	parts := make([]string, len(*a))
	for i, ax := range *a {
		vals := make([]string, len(ax.Values))
		for j, v := range ax.Values {
			vals[j] = sweep.FormatAxisValue(ax.Param, v)
		}
		parts[i] = ax.Param + "=" + strings.Join(vals, ",")
	}
	return strings.Join(parts, " ")
}

func (a *axisFlags) Set(s string) error {
	if s == "help" {
		return fmt.Errorf("known axis parameters: %s", axisParamList())
	}
	ax, err := sweep.ParseAxis(s)
	if err != nil {
		return err
	}
	*a = append(*a, ax)
	return nil
}
