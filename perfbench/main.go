// Command perfbench is the repository's end-to-end benchmark. It drives
// speckit from outside, through the public entry points of the library
// (speckit, internal/core, internal/sched, internal/store), the served
// stack (internal/server with internal/client) and the sweep engine
// (internal/sweep), and prints every metric by name with its unit.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// Each invocation runs one workload in its own process. With --trace 0 it
// measures the end-to-end metrics with tracing off; with --trace 1 it
// alternates untraced and traced passes over the same inputs and reports
// per-layer metrics from the traced ones. Either way the last line of
// standard output is one JSON object {correct, attempted, failed,
// metrics}; the human-readable report goes to standard error, and a
// result file with its provenance block (plus, for traced runs, the span
// JSONL and per-layer table) is written under .bench_out/ when the run
// ends. README.md documents the workloads and the layer map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// procs is the load sizing for the benchmark host class (nproc = 2): pair
// workers, server workers, client connections and, unless a workload sets
// its own, GOMAXPROCS all use it.
const procs = 2

// defaultSeed is the seed used when --seed is not given.
const defaultSeed = 1

// config collects the command-line flags.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	out      string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", defaultSeed, "workload seed: submission order and request mix")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "how long the timed phase measures")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "one iteration at tiny sizes (checks wiring, not speed)")
	flag.StringVar(&cfg.out, "out", ".bench_out", "directory for result files, span JSONL and scratch stores")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1

	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.writeReport(os.Stderr)
	if err := res.save(cfg.out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// env is what a workload's set-up receives.
type env struct {
	seed    uint64
	seconds float64
	smoke   bool
	// dir is a scratch directory inside the checkout for this run's
	// stores; removed when the run ends.
	dir string
}

// workload is one benchmark job.
type workload struct {
	name string
	// setupReps is how many extra set-ups, released unused, precede
	// each pass; setup_s is the median of them all. Spreading them over
	// the run samples the host the way the passes do.
	setupReps int
	// maxprocs is the run's GOMAXPROCS; 0 means procs.
	maxprocs int
	// iterate marks a cold one-shot job: set-up and timed phase repeat
	// until --seconds elapse and wall_s is the median pass. Otherwise a
	// single timed phase sized from --seconds covers the budget.
	iterate bool
	// prepare builds the cold starting state of one pass; tr is the
	// pass's tracer (nil on untraced passes).
	prepare func(ctx context.Context, e *env, tr *tracer) (state, error)
}

// state is a prepared pass.
type state interface {
	// run executes the timed phase; tr is nil on untraced passes.
	run(ctx context.Context, tr *tracer) (outcome, error)
	// close releases the pass's resources (servers, stores).
	close() error
}

// outcome is what one timed phase delivered.
type outcome struct {
	// results counts delivered pairs or sweep grid cells.
	results int
	// attempted and failed count operations; failed includes wrong
	// outputs.
	attempted, failed int
	// digest is the results digest (cellDigest) for jobs checked against
	// a recorded digest; empty for jobs that compare bytes themselves.
	digest string
	// wallS and ratePerS, when positive, are the job's own wall_s and
	// results_per_s at reference speed (see calRefS): serve-warm measures
	// both on its closed loop. Otherwise wall_s is the pass wall at
	// reference speed and results_per_s is results over it.
	wallS, ratePerS float64
	// extra holds the end-to-end metrics that apply to this workload only.
	extra map[string]float64
	// samples is the sample count behind each percentile in extra.
	samples map[string]int
	// layers holds the per-layer metrics of a traced pass.
	layers map[string]float64
}

var workloads = map[string]workload{}

func register(w workload) { workloads[w.name] = w }

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is one invocation's result set.
type result struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      bool               `json:"trace"`
	Smoke      bool               `json:"smoke"`
	Provenance provenance         `json:"provenance"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Checks     []string           `json:"checks"`
	Metrics    map[string]float64 `json:"metrics"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	Samples    map[string]int     `json:"samples"`
	Walls      []float64          `json:"walls_s"`
	Setups     []float64          `json:"setups_s"`
	Cals       []float64          `json:"cal_s"`
	Digests    []string           `json:"digests,omitempty"`

	spans  []span
	layers []layerRow
}

func run(ctx context.Context, cfg config) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if w.maxprocs > 0 {
		runtime.GOMAXPROCS(w.maxprocs)
	} else {
		runtime.GOMAXPROCS(procs)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.out, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: cfg.seed, seconds: cfg.seconds, smoke: cfg.smoke, dir: dir}

	res := &result{
		Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Smoke: cfg.smoke,
		Provenance: collectProvenance(cfg.seed),
		Metrics:    map[string]float64{},
		Samples:    map[string]int{},
	}
	var (
		walls, tracedWalls []float64
		layerRuns          []map[string]float64
		outs, plain        []outcome
		tr                 *tracer
	)
	if cfg.trace {
		tr = newTracer()
	}
	// pass prepares one cold state (timed as set-up) and runs the timed
	// phase on it, traced or not.
	pass := func(traced bool) error {
		// Set-ups and timed phase both start on a collected heap, so no
		// background collection of the previous pass runs under them.
		runtime.GC()
		for i := 0; i < w.setupReps && !cfg.smoke; i++ {
			st, err := timedPrepare(ctx, w, e, nil, res)
			if err != nil {
				return err
			}
			if err := st.close(); err != nil {
				return err
			}
		}
		var ptr *tracer
		if traced {
			ptr = tr
		}
		st, err := timedPrepare(ctx, w, e, ptr, res)
		if err != nil {
			return err
		}
		// The pass is bracketed by calibrations (see calRefS).
		before := calibration()
		runtime.GC()
		start := time.Now()
		out, err := st.run(ctx, ptr)
		wall := time.Since(start).Seconds()
		cal := (before + calibration()) / 2
		if cerr := st.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if traced {
			tracedWalls = append(tracedWalls, wall)
			layerRuns = append(layerRuns, out.layers)
		} else {
			walls = append(walls, wall)
			res.Cals = append(res.Cals, cal)
			if out.wallS == 0 {
				out.wallS = wall * calRefS / cal
			}
			plain = append(plain, out)
		}
		outs = append(outs, out)
		return nil
	}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	begin := time.Now()
	switch {
	case cfg.smoke:
		if err := pass(cfg.trace); err != nil {
			return nil, err
		}
		if cfg.trace {
			if err := pass(false); err != nil {
				return nil, err
			}
		}
	case !w.iterate:
		if err := pass(false); err != nil {
			return nil, err
		}
		if cfg.trace {
			if err := pass(true); err != nil {
				return nil, err
			}
		}
	default:
		for len(walls) == 0 || time.Since(begin) < budget {
			if err := pass(false); err != nil {
				return nil, err
			}
			if cfg.trace {
				if err := pass(true); err != nil {
					return nil, err
				}
			}
		}
	}

	res.Walls = walls
	res.check(w, cfg, outs)
	total := plain[len(plain)-1]
	m := res.Metrics
	m["wall_s"] = medianOf(plain, func(o outcome) float64 { return o.wallS })
	m["host_wall_s"] = median(walls)
	m["setup_s"] = median(res.Setups)
	if total.ratePerS > 0 {
		m["results_per_s"] = medianOf(plain, func(o outcome) float64 { return o.ratePerS })
	} else {
		m["results_per_s"] = float64(total.results) / m["wall_s"]
	}
	m["peak_rss_mib"] = peakRSSMiB()
	m["failed_frac"] = float64(res.Failed) / float64(res.Attempted)
	for k := range total.extra {
		m[k] = medianOf(plain, func(o outcome) float64 { return o.extra[k] })
	}
	for k, n := range total.samples {
		res.Samples[k] = n
	}
	res.Samples["wall_s"] = len(walls)
	res.Samples["host_wall_s"] = len(walls)
	res.Samples["setup_s"] = len(res.Setups)
	if cfg.trace {
		res.Layers = map[string]float64{}
		for _, name := range layerMetricNames() {
			res.Layers[name] = medianOf(layerRuns, func(l map[string]float64) float64 { return l[name] })
		}
		res.Layers["trace.overhead_s"] = median(tracedWalls) - median(walls)
		res.Samples["traced_passes"] = len(tracedWalls)
		res.spans = tr.spans
		res.layers = layerTable(res.Layers)
	}
	return res, nil
}

// timedPrepare runs one set-up and records its duration.
func timedPrepare(ctx context.Context, w workload, e *env, tr *tracer, res *result) (state, error) {
	start := time.Now()
	st, err := w.prepare(ctx, e, tr)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	res.Setups = append(res.Setups, time.Since(start).Seconds())
	return st, nil
}

// check folds every pass's operation counts and output checks into the
// result: digests must match the recorded one where there is one, and
// otherwise agree across passes (a cold pass is deterministic).
func (r *result) check(w workload, cfg config, outs []outcome) {
	want := recordedDigest(w.name, cfg.smoke)
	for i, o := range outs {
		r.Attempted += o.attempted
		r.Failed += o.failed
		if o.digest == "" {
			continue
		}
		r.Digests = append(r.Digests, o.digest)
		ref := want
		if ref == "" {
			ref = outs[0].digest
		}
		if o.digest != ref {
			r.Failed += o.results
			r.Checks = append(r.Checks, fmt.Sprintf("pass %d: digest %s, want %s", i, o.digest, ref))
		}
	}
	if r.Attempted == 0 {
		r.Attempted = 1
		r.Failed = 1
		r.Checks = append(r.Checks, "no operations attempted")
	}
	r.Correct = r.Failed == 0
	if r.Correct {
		r.Checks = append(r.Checks, "ok")
	}
}

// summary is the machine-readable last line: the end-to-end metrics on
// an untraced run, the per-layer metrics on a traced one.
func (r *result) summary() map[string]any {
	names, values := endToEndNames, r.Metrics
	if r.Trace {
		names, values = layerMetricNames(), r.Layers
	}
	metrics := make(map[string]any, len(names))
	for _, n := range names {
		metrics[n] = map[string]any{"value": values[n], "unit": unitOf(n)}
	}
	return map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	}
}

// endToEndNames are the end-to-end metrics every workload reports in the
// summary line; reportOnly are those that apply to some workloads only
// and appear in the report and result file.
var (
	endToEndNames = []string{"wall_s", "results_per_s", "setup_s", "peak_rss_mib"}
	reportOnly    = []string{"host_wall_s", "failed_frac", "req_p50_s", "req_p99_s", "paper_err_pct", "loadgen.late_p99_s"}
)

var units = map[string]string{
	"wall_s": "s", "host_wall_s": "s", "results_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB",
	"failed_frac": "frac", "req_p50_s": "s", "req_p99_s": "s", "paper_err_pct": "%",
}

func unitOf(name string) string {
	if u, ok := units[name]; ok {
		return u
	}
	return layerUnit(name)
}

func (r *result) writeReport(w io.Writer) {
	mode := "end-to-end"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d (%s%s)\n", r.Workload, r.Seed, mode, map[bool]string{true: ", smoke"}[r.Smoke])
	p := r.Provenance
	fmt.Fprintf(w, "  host: %s, nproc=%d, GOMAXPROCS=%d, %s, commit %s\n", p.CPU, p.NProc, p.GOMAXPROCS, p.GoVersion, p.Commit)
	for _, n := range append(append([]string{}, endToEndNames...), reportOnly...) {
		v, ok := r.Metrics[n]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-16s %14.6g %-5s", n, v, unitOf(n))
		if c, ok := r.Samples[n]; ok {
			fmt.Fprintf(w, "  (n=%d)", c)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  checks: %s (attempted %d, failed %d)\n", strings.Join(r.Checks, "; "), r.Attempted, r.Failed)
	if r.Trace {
		writeLayerTable(w, r.layers)
	}
}

// save writes the result file and, for traced runs, the span JSONL and
// per-layer table.
func (r *result) save(dir string) error {
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", r.Workload, r.Seed))
	if r.Trace {
		base += "-traced"
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !r.Trace {
		return nil
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return err
		}
	}
	if err := os.WriteFile(base+".spans.jsonl", []byte(b.String()), 0o644); err != nil {
		return err
	}
	var t strings.Builder
	writeLayerTable(&t, r.layers)
	return os.WriteFile(base+".layers.txt", []byte(t.String()), 0o644)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf[T any](xs []T, f func(T) float64) float64 {
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = f(x)
	}
	return median(vals)
}

// quantile returns the q-quantile of xs by the nearest-rank method.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
