// Command specload is the load generator for specserved (single node or
// fleet coordinator): it drives concurrent campaigns — or, with
// -sweeps, design-space sweeps — through the typed client, measures
// per-job latency into an internal/obs histogram, and gates the run
// against latency and throughput SLOs.
//
// Usage:
//
//	specload -addr http://127.0.0.1:8217 [-campaigns 8] [-concurrency 4]
//	         [-suite cpu2017] [-mini rate-int] [-size test] [-n 20000]
//	         [-sampling off] [-unique]
//	         [-sweeps 0] [-sweep-axes "l3.size=1MiB,2MiB"] [-escalate sampled]
//	         [-slo-p50 0] [-slo-p99 0] [-min-pairs-per-sec 0]
//	         [-bench BENCH_serve.json] [-label ""]
//
// Each campaign is submitted with ?wait=1 (queue-full rejections retry
// under the client's backoff policy, honoring Retry-After). With
// -unique, campaign i widens the instruction window by i so every
// campaign carries distinct content keys and actually exercises the
// serving tier; without it, repeats are served from the target's cache
// and the run measures pure serving latency.
//
// With -sweeps N the generator submits N /v1/sweeps jobs instead of
// campaigns: -sweep-axes takes semicolon-separated axes in specsweep's
// param=v1,v2 syntax, -unique widens the instruction window per sweep,
// and the report counts grid cells (simulated vs served) instead of
// pairs. The -min-pairs-per-sec floor then gates cells per second.
//
// -sampling is forwarded as each job's "sampling" field, in the syntax
// of the campaign tools' -scenario sampling= knob.
//
// The report is one JSON object on stdout: p50/p99/mean latency
// (interpolated from the obs histogram), jobs/s and pairs/s (or
// cells/s) over the wall clock, and error counts. When -slo-p50,
// -slo-p99 or -min-pairs-per-sec are set, a violation prints to stderr
// and exits 1 — the CI gate. With -bench, the report is also appended
// to the file's "trajectory" array (created as needed), preserving the
// "floors" block for the baseline gate test.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sweep"
)

// report is the JSON result of one specload run; also the trajectory
// entry format in BENCH_serve.json.
type report struct {
	Date        string  `json:"date"`
	Label       string  `json:"label,omitempty"`
	Target      string  `json:"target"`
	Mode        string  `json:"mode,omitempty"`
	Campaigns   int     `json:"campaigns"`
	Concurrency int     `json:"concurrency"`
	Unique      bool    `json:"unique"`
	Errors      int     `json:"errors"`
	TotalPairs  int     `json:"total_pairs"`
	ElapsedS    float64 `json:"elapsed_s"`
	P50S        float64 `json:"p50_s"`
	P99S        float64 `json:"p99_s"`
	MeanS       float64 `json:"mean_s"`
	CampaignsPS float64 `json:"campaigns_per_s"`
	PairsPS     float64 `json:"pairs_per_s"`
	// Sweep-mode extras: grid cells across all sweeps, split by
	// whether the target simulated them or served them from a cache
	// tier (memory, store or a fleet worker's cache).
	Cells          int     `json:"cells,omitempty"`
	CellsSimulated int     `json:"cells_simulated,omitempty"`
	CellsServed    int     `json:"cells_served,omitempty"`
	CellsPS        float64 `json:"cells_per_s,omitempty"`
	// ScreenCells and EscalateCells summarize per-cell completion
	// latency by sweep phase, attributed from each sweep's SSE
	// progress stream: the screen phase is dominated by cheap
	// (possibly cache-served) cells, escalation by the expensive
	// re-simulations — one aggregate latency would hide the split the
	// fidelity-escalation design exists to create.
	ScreenCells   *phaseLatency `json:"screen_cell_latency,omitempty"`
	EscalateCells *phaseLatency `json:"escalate_cell_latency,omitempty"`
}

// phaseLatency is one sweep phase's cell-latency summary.
type phaseLatency struct {
	Cells int     `json:"cells"`
	P50S  float64 `json:"p50_s"`
	P99S  float64 `json:"p99_s"`
	MeanS float64 `json:"mean_s"`
}

// summarize converts a phase histogram snapshot into the report form;
// empty phases (e.g. -escalate off) report nil so they stay out of the
// JSON.
func summarize(snap obs.HistogramSnapshot) *phaseLatency {
	if snap.Count == 0 {
		return nil
	}
	return &phaseLatency{
		Cells: int(snap.Count),
		P50S:  snap.Quantile(0.50),
		P99S:  snap.Quantile(0.99),
		MeanS: snap.Sum / float64(snap.Count),
	}
}

// config carries the parsed flags.
type config struct {
	addr              string
	campaigns         int
	concurrency       int
	suite, mini, size string
	n                 uint64
	sampling          string
	unique            bool
	sweeps            int
	sweepAxes         string
	escalate          string
	sloP50, sloP99    time.Duration
	minPairs          float64
	bench, label      string
	timeout           time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "http://127.0.0.1:8217", "specserved base URL")
	flag.IntVar(&cfg.campaigns, "campaigns", 8, "campaigns to submit in total")
	flag.IntVar(&cfg.concurrency, "concurrency", 4, "jobs in flight at once")
	flag.StringVar(&cfg.suite, "suite", "cpu2017", "benchmark suite")
	flag.StringVar(&cfg.mini, "mini", "rate-int", "mini-suite filter")
	flag.StringVar(&cfg.size, "size", "test", "input size")
	flag.Uint64Var(&cfg.n, "n", 20000, "instructions per pair")
	flag.StringVar(&cfg.sampling, "sampling", "", "sampling knob forwarded to the server")
	flag.BoolVar(&cfg.unique, "unique", false, "give every job distinct content keys (job i runs n+i instructions)")
	flag.IntVar(&cfg.sweeps, "sweeps", 0, "drive this many /v1/sweeps jobs instead of campaigns")
	flag.StringVar(&cfg.sweepAxes, "sweep-axes", "l3.size=1MiB,2MiB", "semicolon-separated sweep axes (param=v1,v2,...)")
	flag.StringVar(&cfg.escalate, "escalate", "off", "sweep escalation tier: sampled, exact, analytic or off")
	flag.DurationVar(&cfg.sloP50, "slo-p50", 0, "fail when p50 job latency exceeds this (0 = no gate)")
	flag.DurationVar(&cfg.sloP99, "slo-p99", 0, "fail when p99 job latency exceeds this (0 = no gate)")
	flag.Float64Var(&cfg.minPairs, "min-pairs-per-sec", 0, "fail when pair (or sweep-cell) throughput falls below this (0 = no gate)")
	flag.StringVar(&cfg.bench, "bench", "", "append the report to this BENCH_serve.json trajectory file")
	flag.StringVar(&cfg.label, "label", "", "free-form label recorded in the report (e.g. \"fleet-3\")")
	flag.DurationVar(&cfg.timeout, "timeout", 10*time.Minute, "overall deadline")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "specload:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
	defer cancel()
	cl := client.New(cfg.addr)
	if ok, err := cl.Health(ctx); err != nil || !ok {
		return fmt.Errorf("target %s is not healthy (err: %v)", cfg.addr, err)
	}

	rep := report{
		Date:        time.Now().UTC().Format("2006-01-02"),
		Label:       cfg.label,
		Target:      cfg.addr,
		Concurrency: cfg.concurrency,
		Unique:      cfg.unique,
	}
	var err error
	if cfg.sweeps > 0 {
		err = runSweeps(ctx, cl, cfg, &rep)
	} else {
		err = runCampaigns(ctx, cl, cfg, &rep)
	}
	if err != nil {
		return err
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))

	if cfg.bench != "" {
		if err := appendTrajectory(cfg.bench, rep); err != nil {
			return fmt.Errorf("recording trajectory: %w", err)
		}
	}
	return gate(cfg, rep)
}

// runCampaigns drives cfg.campaigns concurrent campaign jobs.
func runCampaigns(ctx context.Context, cl *client.Client, cfg config, rep *report) error {
	hist := obs.Default().Histogram("specload_campaign_seconds",
		"End-to-end campaign latency as observed by specload.", obs.LatencyBuckets)
	var (
		errs  atomic.Int64
		pairs atomic.Int64
	)
	elapsed := fanOut(cfg.campaigns, cfg.concurrency, func(i int) {
		spec := server.CampaignSpec{
			Suite: cfg.suite, Mini: cfg.mini, Size: cfg.size,
			Instructions: cfg.n, Sampling: cfg.sampling,
		}
		if cfg.unique {
			spec.Instructions = cfg.n + uint64(i)
		}
		t0 := time.Now()
		st, err := cl.SubmitWait(ctx, spec)
		hist.ObserveDuration(time.Since(t0))
		if err != nil || st.Status != server.StatusDone {
			errs.Add(1)
			fmt.Fprintf(os.Stderr, "specload: campaign failed: status=%s err=%v\n", st.Status, err)
			return
		}
		pairs.Add(int64(st.Pairs))
	})

	rep.Campaigns = cfg.campaigns
	rep.Errors = int(errs.Load())
	rep.TotalPairs = int(pairs.Load())
	fill(rep, hist, cfg.campaigns, elapsed)
	rep.PairsPS = float64(pairs.Load()) / elapsed.Seconds()
	return nil
}

// runSweeps drives cfg.sweeps concurrent /v1/sweeps jobs and counts
// grid cells by how the target satisfied them.
func runSweeps(ctx context.Context, cl *client.Client, cfg config, rep *report) error {
	var axes []sweep.Axis
	for _, part := range strings.Split(cfg.sweepAxes, ";") {
		ax, err := sweep.ParseAxis(strings.TrimSpace(part))
		if err != nil {
			return err
		}
		axes = append(axes, ax)
	}
	hist := obs.Default().Histogram("specload_sweep_seconds",
		"End-to-end sweep latency as observed by specload.", obs.LatencyBuckets)
	phaseHist := map[string]*obs.Histogram{
		"screen": obs.Default().Histogram("specload_sweep_cell_seconds",
			"Per-cell completion latency by sweep phase, attributed from the sweep's SSE progress stream.",
			obs.LatencyBuckets, "phase", "screen"),
		"escalate": obs.Default().Histogram("specload_sweep_cell_seconds", "",
			obs.LatencyBuckets, "phase", "escalate"),
	}
	var (
		errs                     atomic.Int64
		cells, simulated, served atomic.Int64
	)
	elapsed := fanOut(cfg.sweeps, cfg.concurrency, func(i int) {
		spec := server.SweepSpec{
			Suite: cfg.suite, Mini: cfg.mini, Size: cfg.size,
			Instructions: cfg.n, Sampling: cfg.sampling,
			Axes: axes, Escalate: cfg.escalate,
		}
		if cfg.unique {
			spec.Instructions = cfg.n + uint64(i)
		}
		t0 := time.Now()
		st, err := runSweep(ctx, cl, spec, phaseHist)
		hist.ObserveDuration(time.Since(t0))
		if err != nil || st.Status != server.StatusDone || st.Result == nil {
			errs.Add(1)
			fmt.Fprintf(os.Stderr, "specload: sweep failed: status=%s err=%v\n", st.Status, err)
			return
		}
		for _, c := range []sweep.CellCounts{st.Result.Screen, st.Result.Escalate} {
			cells.Add(int64(c.Total()))
			simulated.Add(int64(c.Simulated))
			served.Add(int64(c.Total() - c.Simulated))
		}
	})

	rep.Mode = "sweeps"
	rep.Campaigns = cfg.sweeps
	rep.Errors = int(errs.Load())
	fill(rep, hist, cfg.sweeps, elapsed)
	rep.Cells = int(cells.Load())
	rep.CellsSimulated = int(simulated.Load())
	rep.CellsServed = int(served.Load())
	rep.CellsPS = float64(cells.Load()) / elapsed.Seconds()
	rep.ScreenCells = summarize(phaseHist["screen"].Snapshot())
	rep.EscalateCells = summarize(phaseHist["escalate"].Snapshot())
	return nil
}

// runSweep submits one sweep without ?wait=1 (retrying queue-full
// rejections) and follows its SSE event stream to completion,
// attributing per-cell completion latency to the phase histograms: the
// wall time between consecutive progress snapshots is split evenly over
// the cells that completed in the interval and observed under the
// snapshot's phase. The stream's done event omits the result payload,
// so the terminal status comes from one final poll (immediate — the
// sweep is already terminal when the stream closes).
func runSweep(ctx context.Context, cl *client.Client, spec server.SweepSpec,
	phaseHist map[string]*obs.Histogram) (server.SweepStatus, error) {
	var st server.SweepStatus
	var err error
	for {
		st, err = cl.SubmitSweep(ctx, spec)
		if err == nil || !client.IsQueueFull(err) {
			break
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
	if err != nil {
		return st, err
	}

	last, lastCells := time.Now(), 0
	err = cl.SweepEvents(ctx, st.ID, func(ev client.Event) error {
		if ev.Name != "progress" {
			return nil
		}
		p, perr := ev.SweepProgress()
		if perr != nil {
			return nil
		}
		now := time.Now()
		if d := p.CellsDone - lastCells; d > 0 {
			h := phaseHist[p.Phase]
			if h == nil {
				h = phaseHist["screen"]
			}
			per := now.Sub(last).Seconds() / float64(d)
			for i := 0; i < d; i++ {
				h.Observe(per)
			}
			lastCells = p.CellsDone
		}
		last = now
		return nil
	})
	if err != nil {
		return st, err
	}
	return cl.WaitSweep(ctx, st.ID)
}

// fanOut runs fn(0..jobs-1) with at most concurrency in flight and
// returns the wall time.
func fanOut(jobs, concurrency int, fn func(i int)) time.Duration {
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(concurrency, 1))
	start := time.Now()
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
	return time.Since(start)
}

// fill records the shared latency/throughput fields from the histogram.
func fill(rep *report, hist *obs.Histogram, jobs int, elapsed time.Duration) {
	snap := hist.Snapshot()
	rep.ElapsedS = elapsed.Seconds()
	rep.P50S = snap.Quantile(0.50)
	rep.P99S = snap.Quantile(0.99)
	rep.CampaignsPS = float64(jobs) / elapsed.Seconds()
	if snap.Count > 0 {
		rep.MeanS = snap.Sum / float64(snap.Count)
	}
}

// gate checks the SLO flags against the report.
func gate(cfg config, rep report) error {
	throughput, floor := rep.PairsPS, "pairs/s"
	if rep.Mode == "sweeps" {
		throughput, floor = rep.CellsPS, "cells/s"
	}
	var violations []string
	if rep.Errors > 0 {
		violations = append(violations, fmt.Sprintf("%d/%d jobs failed", rep.Errors, rep.Campaigns))
	}
	if cfg.sloP50 > 0 && rep.P50S > cfg.sloP50.Seconds() {
		violations = append(violations, fmt.Sprintf("p50 %.3fs exceeds SLO %s", rep.P50S, cfg.sloP50))
	}
	if cfg.sloP99 > 0 && rep.P99S > cfg.sloP99.Seconds() {
		violations = append(violations, fmt.Sprintf("p99 %.3fs exceeds SLO %s", rep.P99S, cfg.sloP99))
	}
	if cfg.minPairs > 0 && throughput < cfg.minPairs {
		violations = append(violations, fmt.Sprintf("throughput %.1f %s below floor %.1f", throughput, floor, cfg.minPairs))
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "specload: SLO violation:", v)
		}
		return fmt.Errorf("%d SLO violation(s)", len(violations))
	}
	return nil
}

// benchFile is the BENCH_serve.json shape: recorded floors plus the
// trajectory of specload runs. Unknown fields (comment, etc.) are
// preserved via the raw map.
type benchFile map[string]json.RawMessage

// appendTrajectory appends rep to the file's "trajectory" array,
// creating the file if missing and leaving every other top-level field
// (comment, floors, recorded runs) untouched.
func appendTrajectory(path string, rep report) error {
	bf := benchFile{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &bf); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	var traj []report
	if raw, ok := bf["trajectory"]; ok {
		if err := json.Unmarshal(raw, &traj); err != nil {
			return fmt.Errorf("parsing %s trajectory: %w", path, err)
		}
	}
	traj = append(traj, rep)
	enc, err := json.Marshal(traj)
	if err != nil {
		return err
	}
	bf["trajectory"] = enc
	out, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
