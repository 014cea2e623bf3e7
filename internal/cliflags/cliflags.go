// Package cliflags centralizes the campaign flags and end-of-run
// reporting shared by the speckit command-line tools (specchar,
// specsubset, specvalidate, specsweep): the -progress meter, the
// -cache-dir persistent store, the -scenario measurement scenario
// (fidelity tier, sampling, intra-pair workers, rate copies, topology),
// the -batch kernel knob, and the observability pair -trace (JSONL run
// manifest) and -slow-pair (per-pair latency warnings). Each tool
// embeds a Campaign, registers the flags, builds its campaign options
// from it, and calls Finish once the campaign completes.
//
// The package is deliberately built on the public speckit API — the
// tools exercise the same consolidated surface library users get.
package cliflags

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	speckit "repro"
)

// Campaign holds the shared campaign flags. The zero value is usable
// directly (tests construct it as a literal); Register wires the same
// fields to command-line flags.
type Campaign struct {
	// Progress enables the live stderr progress meter and the final
	// tiered cache-stats line (-progress).
	Progress bool
	// CacheDir is the persistent result-store directory (-cache-dir,
	// empty = in-memory cache only).
	CacheDir string
	// Batch is the simulation kernel batch size in uops (-batch, 0 =
	// default).
	Batch int
	// Parallelism bounds concurrent pair simulations (-j, 0 = NumCPU).
	Parallelism int
	// Scenario is the raw measurement-scenario string (-scenario, in
	// speckit.ParseScenario syntax); empty means exact, single-copy,
	// homogeneous.
	Scenario string
	// TraceFile, when set, records the campaign's span tree and writes
	// it there as a JSONL run manifest (-trace).
	TraceFile string
	// SlowPair, when positive, warns on stderr about any pair whose
	// wall time exceeded it (-slow-pair). Implies span recording even
	// without -trace.
	SlowPair time.Duration

	// State captured by Options for Finish.
	cache    *speckit.Cache
	trace    *speckit.Trace
	scenario speckit.Scenario
}

// Register installs the shared flags on fs (flag.CommandLine in the
// tools' main).
func (c *Campaign) Register(fs *flag.FlagSet) {
	fs.BoolVar(&c.Progress, "progress", c.Progress, "print a live progress meter (with per-tier cache hits) to stderr")
	fs.StringVar(&c.CacheDir, "cache-dir", c.CacheDir, "persistent result-store directory: pair results are saved as checksummed content-addressed records, and repeated runs with the same models, machine and options are re-used bit-identically instead of re-simulated (empty = in-memory cache only)")
	fs.IntVar(&c.Batch, "batch", c.Batch, "simulation kernel batch size in uops (0 = default; results are batch-size independent)")
	fs.IntVar(&c.Parallelism, "j", c.Parallelism, "concurrent pair simulations (0 = NumCPU)")
	fs.StringVar(&c.Scenario, "scenario", c.Scenario, "measurement scenario, comma-separated tokens: a fidelity tier (exact, sampled, analytic), sampling=default|PERIOD/DETAIL/WARMUP, j-pair=N, rate=N, topo=4P4E-random; every scenario is cached under its own keys (empty = exact)")
	fs.StringVar(&c.TraceFile, "trace", c.TraceFile, "write the campaign's span tree (campaign -> pair -> simulation stages, with cache-tier outcomes) to FILE as a JSONL run manifest; never affects results or cache identity")
	fs.DurationVar(&c.SlowPair, "slow-pair", c.SlowPair, "warn on stderr about pairs slower than this wall-time threshold (e.g. 2s; 0 = off)")
}

// Options builds the campaign options the flags describe: the parsed
// scenario, a fresh shared cache, the optional persistent store,
// the progress meter, and a run trace when -trace or -slow-pair asks
// for one.
func (c *Campaign) Options(ctx context.Context) (speckit.Options, error) {
	scenario, err := speckit.ParseScenario(c.Scenario)
	if err != nil {
		return speckit.Options{}, err
	}
	c.scenario = scenario
	c.cache = speckit.NewCache()
	opts := []speckit.Option{
		speckit.WithContext(ctx),
		speckit.WithCache(c.cache),
		speckit.WithScenario(scenario),
		speckit.WithBatchSize(c.Batch),
		speckit.WithParallelism(c.Parallelism),
	}
	if c.Progress {
		opts = append(opts, speckit.WithProgress(speckit.ProgressPrinter(os.Stderr)))
	}
	if c.CacheDir != "" {
		st, err := speckit.OpenStore(c.CacheDir)
		if err != nil {
			return speckit.Options{}, err
		}
		opts = append(opts, speckit.WithStore(st))
	}
	if c.TraceFile != "" || c.SlowPair > 0 {
		c.trace = speckit.NewTrace()
		opts = append(opts, speckit.WithTrace(c.trace))
	}
	return speckit.NewOptions(opts...), nil
}

// ScenarioKnob returns the scenario parsed by Options (zero before
// then).
func (c *Campaign) ScenarioKnob() speckit.Scenario { return c.scenario }

// Finish completes the shared end-of-run reporting: the tiered
// cache-stats line under -progress, slow-pair warnings, and the JSONL
// run manifest (with its digest) for -trace. Call it once, after the
// campaign(s) built from Options have completed.
func (c *Campaign) Finish() error {
	if c.Progress && c.cache != nil {
		s := c.cache.Stats()
		fmt.Fprintf(os.Stderr, "cache: %d memory hits, %d store hits, %d misses (%.0f%% hit rate)\n",
			s.MemoryHits, s.StoreHits, s.Misses, 100*s.HitRate())
	}
	if c.trace == nil {
		return nil
	}
	manifest, err := c.trace.Manifest()
	if err != nil {
		return fmt.Errorf("render run manifest: %w", err)
	}
	if c.SlowPair > 0 {
		if err := c.warnSlowPairs(manifest); err != nil {
			return err
		}
	}
	if c.TraceFile != "" {
		if err := os.WriteFile(c.TraceFile, manifest, 0o644); err != nil {
			return fmt.Errorf("write run manifest: %w", err)
		}
		fmt.Fprintf(os.Stderr, "trace: wrote %s (sha256 %s)\n",
			c.TraceFile, speckit.ManifestDigest(manifest))
	}
	return nil
}

// warnSlowPairs scans the manifest for pair spans (the spans carrying a
// cache-tier outcome) over the -slow-pair threshold.
func (c *Campaign) warnSlowPairs(manifest []byte) error {
	_, spans, err := speckit.ReadManifest(bytes.NewReader(manifest))
	if err != nil {
		return fmt.Errorf("scan run manifest: %w", err)
	}
	for _, s := range spans {
		tier, ok := s.Attrs["tier"]
		if !ok {
			continue
		}
		if d := time.Duration(s.DurUS) * time.Microsecond; d >= c.SlowPair {
			fmt.Fprintf(os.Stderr, "slow pair: %s took %s (tier %v, threshold %s)\n",
				s.Name, d.Round(time.Millisecond), tier, c.SlowPair)
		}
	}
	return nil
}

// SignalContext returns a context cancelled by SIGINT/SIGTERM — the
// tools' shared Ctrl-C path: the in-flight campaign aborts through the
// scheduler's context instead of the process dying mid-write.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}
