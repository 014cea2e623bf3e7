package speckit

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchBaselines mirrors BENCH_kernel.json: recorded kernel benchmark
// throughputs plus the acceptance floors their ratios must clear.
type benchBaselines struct {
	Benchmarks map[string]struct {
		UopsPerS float64 `json:"uops_per_s"`
	} `json:"benchmarks"`
	Floors map[string]float64 `json:"floors"`
}

// TestKernelBenchBaselines gates the recorded kernel baselines against
// the acceptance floors: the batched machine kernel must be >=1.5x the
// per-uop reference, the sampled kernel >=3x the exact per-pair cost,
// the analytic tier >=100x it, and the 8-window parallel kernel's
// critical path >=2x the sequential per-pair wall clock. It checks the
// numbers recorded in BENCH_kernel.json — not a
// live timing, which a loaded CI machine would make flaky — so a kernel
// regression is caught at re-record time and a stale record that never
// met the floor is caught on every run (bench-smoke re-times the
// benchmarks for liveness right before this gate).
func TestKernelBenchBaselines(t *testing.T) {
	b := loadBaselines(t)
	for _, r := range kernelRatios {
		got := b.uops(t, r.num) / b.uops(t, r.den)
		want := b.floor(t, r.floor)
		if got < want {
			t.Errorf("%s: recorded ratio %.2fx below floor %.2fx (%s / %s)",
				r.floor, got, want, r.num, r.den)
		} else {
			t.Logf("%s: %.2fx (floor %.2fx)", r.floor, got, want)
		}
	}
}

// kernelRatios are the gated ratios: each floor's numerator and
// denominator benchmark.
var kernelRatios = []struct {
	floor    string
	num, den string
}{
	{"machine_batched_over_peruop", "BenchmarkKernelMachine/batched", "BenchmarkKernelMachine/peruop"},
	{"sampled_over_exact", "BenchmarkKernelSampled/sampled", "BenchmarkKernelSampled/exact"},
	{"analytic_over_exact", "BenchmarkKernelAnalytic", "BenchmarkKernelSampled/exact"},
	{"parallel_over_sequential", "BenchmarkKernelParallel/par8", "BenchmarkKernelParallel/sequential"},
}

func loadBaselines(t *testing.T) *benchBaselines {
	t.Helper()
	raw, err := os.ReadFile("BENCH_kernel.json")
	if err != nil {
		t.Fatalf("reading baselines: %v", err)
	}
	var b benchBaselines
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("parsing BENCH_kernel.json: %v", err)
	}
	return &b
}

func (b *benchBaselines) uops(t *testing.T, name string) float64 {
	t.Helper()
	e, ok := b.Benchmarks[name]
	if !ok || e.UopsPerS <= 0 {
		t.Fatalf("BENCH_kernel.json missing benchmark %q", name)
	}
	return e.UopsPerS
}

func (b *benchBaselines) floor(t *testing.T, name string) float64 {
	t.Helper()
	f, ok := b.Floors[name]
	if !ok || f <= 0 {
		t.Fatalf("BENCH_kernel.json missing floor %q", name)
	}
	return f
}

var kernelFresh = flag.String("kernel.fresh", "", "file of `go test -bench` output for TestKernelBenchFresh to report on")

// TestKernelBenchFresh is the report behind make bench-fresh: it reads
// the output of BENCH_kernel.json's regenerate commands from the
// -kernel.fresh file and prints each gated ratio, fresh, beside the
// recorded one and its floor. It gates nothing, so a stale ledger shows
// without failing anyone's build; it skips without the flag.
func TestKernelBenchFresh(t *testing.T) {
	if *kernelFresh == "" {
		t.Skip("no -kernel.fresh file; run make bench-fresh")
	}
	raw, err := os.ReadFile(*kernelFresh)
	if err != nil {
		t.Fatal(err)
	}
	fresh := parseBenchRates(raw)
	b := loadBaselines(t)
	fmt.Printf("%-28s %8s %9s %6s\n", "gated ratio", "fresh", "recorded", "floor")
	for _, r := range kernelRatios {
		got := "n/a"
		if num, den := fresh[r.num], fresh[r.den]; num > 0 && den > 0 {
			got = fmt.Sprintf("%.2fx", num/den)
		}
		fmt.Printf("%-28s %8s %8.2fx %5.1fx\n", r.floor, got, b.uops(t, r.num)/b.uops(t, r.den), b.floor(t, r.floor))
	}
}

// parseBenchRates reads each benchmark's throughput from `go test
// -bench` output, with the GOMAXPROCS suffix dropped from its name: the
// crituops/s metric where a line has one (the parallel kernel's
// critical path, which BENCH_kernel.json records), else uops/s.
func parseBenchRates(raw []byte) map[string]float64 {
	rates := map[string]float64{}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		f := strings.Fields(string(line))
		if len(f) < 2 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			name = name[:i]
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			if f[i+1] == "crituops/s" || (f[i+1] == "uops/s" && rates[name] == 0) {
				rates[name] = v
			}
		}
	}
	return rates
}
