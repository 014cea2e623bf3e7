package cliflags

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	speckit "repro"
)

func TestRegisterAndParse(t *testing.T) {
	var c Campaign
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.Register(fs)
	err := fs.Parse([]string{
		"-progress", "-cache-dir", "/tmp/x", "-scenario", "sampled,j-pair=8",
		"-batch", "128", "-j", "2", "-trace", "run.jsonl", "-slow-pair", "2s",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Campaign{
		Progress: true, CacheDir: "/tmp/x", Scenario: "sampled,j-pair=8",
		Batch: 128, Parallelism: 2, TraceFile: "run.jsonl", SlowPair: 2 * time.Second,
	}
	if c != want {
		t.Errorf("parsed = %+v, want %+v", c, want)
	}

	// Defaults: everything zero.
	var d Campaign
	fs = flag.NewFlagSet("defaults", flag.ContinueOnError)
	d.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if d != (Campaign{}) {
		t.Errorf("defaults = %+v", d)
	}
}

func TestOptionsBadSampling(t *testing.T) {
	c := Campaign{Scenario: "sampling=not-a-knob"}
	if _, err := c.Options(context.Background()); err == nil {
		t.Fatal("bad sampling knob accepted")
	}
}

func TestOptionsFidelity(t *testing.T) {
	c := Campaign{Scenario: "analytic"}
	opt, err := c.Options(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if opt.Fidelity != speckit.FidelityAnalytic {
		t.Errorf("fidelity = %v, want analytic", opt.Fidelity)
	}

	if _, err := (&Campaign{Scenario: "turbo"}).Options(context.Background()); err == nil {
		t.Error("bad fidelity tier accepted")
	}

	// j-pair reaches the campaign options untranslated.
	pw := Campaign{Scenario: "j-pair=8"}
	popt, err := pw.Options(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if popt.IntraPairWorkers != 8 {
		t.Errorf("IntraPairWorkers = %d, want 8", popt.IntraPairWorkers)
	}

	bad := Campaign{Scenario: "analytic,sampling=default"}
	if _, err := bad.Options(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "analytic") {
		t.Errorf("analytic+sampling = %v, want rejection", err)
	}
}

// TestParseScenario drives the -scenario flag through Options: accepted
// strings reach the options and round-trip through the canonical
// String(); rejected ones fail with the message specserved gives for
// the same scenario.
func TestParseScenario(t *testing.T) {
	cases := []struct {
		in   string
		want speckit.Scenario
	}{
		{"", speckit.Scenario{}},
		{"exact", speckit.Scenario{}},
		{"sampled", speckit.Scenario{Fidelity: speckit.FidelitySampled}},
		{"analytic", speckit.Scenario{Fidelity: speckit.FidelityAnalytic}},
		{"sampling=131072/4096/4096", speckit.Scenario{
			Sampling: speckit.Sampling{Period: 131072, DetailLen: 4096, WarmupLen: 4096}}},
		{"j-pair=8", speckit.Scenario{IntraPairWorkers: 8}},
		{"rate=4", speckit.Scenario{RateCopies: 4}},
		{"exact,rate=4,topo=4P4E-random", speckit.Scenario{
			RateCopies: 4,
			Topology:   speckit.Topology{PCores: 4, ECores: 4, Placement: speckit.PlaceRandom}}},
		{" Exact , Rate=2 ", speckit.Scenario{RateCopies: 2}},
	}
	for _, tc := range cases {
		c := Campaign{Scenario: tc.in}
		opt, err := c.Options(context.Background())
		if err != nil {
			t.Errorf("-scenario %q: %v", tc.in, err)
			continue
		}
		if opt.Scenario != tc.want {
			t.Errorf("-scenario %q = %+v, want %+v", tc.in, opt.Scenario, tc.want)
			continue
		}
		// The canonical string round-trips through the parser.
		back, err := speckit.ParseScenario(tc.want.String())
		if err != nil || back != tc.want {
			t.Errorf("round trip %q -> %q -> %+v (%v)", tc.in, tc.want.String(), back, err)
		}
	}

	for _, tc := range []struct{ in, msg string }{
		{"turbo", "unknown knob"},            // unknown tier
		{"exact=1", "takes no value"},        // tier tokens take no value
		{"rate=x", "invalid syntax"},         // non-numeric knob
		{"warp=9", "unknown knob"},           // unknown knob
		{"topo=4X4E-random", "bad topology"}, // malformed topology
		{"analytic,sampling=262144/8192/8192", "does not compose"},
		{"analytic,rate=4", "(got analytic)"},
		{"sampled,topo=4P4E-random", "(got sampled)"},
		// Counts the server rejects are rejected here with its message,
		// as is a copy count past the rate-mode bound.
		{"rate=-3", "rate_copies must be non-negative"},
		{"j-pair=-2", "workers_per_pair must be non-negative"},
		{"rate=65", "rate_copies 65 exceeds the maximum of 64"},
	} {
		_, err := (&Campaign{Scenario: tc.in}).Options(context.Background())
		if err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("-scenario %q: err = %v, want %q", tc.in, err, tc.msg)
		}
	}
}

// TestScenarioFlagEquivalence: every spelling of one scenario resolves
// to identical campaign options — one scenario, one cache keyspace.
func TestScenarioFlagEquivalence(t *testing.T) {
	spellings := []string{"sampled,j-pair=4", "fidelity=sampled,jpair=4", "j-pair=4,sampling=default"}
	var first speckit.Options
	for i, in := range spellings {
		c := Campaign{Scenario: in}
		opt, err := c.Options(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		opt = opt.Normalized()
		if i == 0 {
			first = opt
			continue
		}
		if opt.Scenario != first.Scenario {
			t.Errorf("%q normalizes to %+v, %q to %+v", in, opt.Scenario, spellings[0], first.Scenario)
		}
	}
	if first.Fidelity != speckit.FidelitySampled || first.Sampling != speckit.DefaultSampling() {
		t.Errorf("normalized scenario = %+v, want the default sampled tier", first.Scenario)
	}
}

// captureStderr runs fn with os.Stderr redirected and returns what it
// wrote.
func captureStderr(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	ferr := fn()
	w.Close()
	os.Stderr = old
	out, _ := io.ReadAll(r)
	if ferr != nil {
		t.Fatalf("fn: %v (stderr: %s)", ferr, out)
	}
	return string(out)
}

// TestCampaignTraceAndFinish: a campaign run through the shared flags
// writes a valid manifest for -trace, warns about slow pairs, and
// prints the cache-stats line under -progress.
func TestCampaignTraceAndFinish(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "run.jsonl")
	c := Campaign{
		Progress:  true,
		TraceFile: traceFile,
		SlowPair:  time.Microsecond, // every simulated pair exceeds this
	}
	opt, err := c.Options(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	opt.Instructions = 10000
	suite := speckit.CPU2017().Mini(speckit.RateInt)
	chars, err := speckit.Characterize(suite, speckit.Test, opt)
	if err != nil {
		t.Fatal(err)
	}

	out := captureStderr(t, c.Finish)
	if !strings.Contains(out, "cache: ") {
		t.Errorf("no cache-stats line in %q", out)
	}
	if got := strings.Count(out, "slow pair: "); got != len(chars) {
		t.Errorf("slow-pair warnings = %d, want %d\n%s", got, len(chars), out)
	}
	if !strings.Contains(out, "trace: wrote "+traceFile) {
		t.Errorf("no trace line in %q", out)
	}

	manifest, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	_, spans, err := speckit.ReadManifest(bytes.NewReader(manifest))
	if err != nil {
		t.Fatal(err)
	}
	pairSpans := 0
	for _, s := range spans {
		if s.Attrs["tier"] != nil {
			pairSpans++
		}
	}
	if pairSpans != len(chars) {
		t.Errorf("manifest pair spans = %d, want %d", pairSpans, len(chars))
	}
	if !strings.Contains(out, speckit.ManifestDigest(manifest)) {
		t.Error("trace line does not report the manifest digest")
	}
}

// TestFinishWithoutTrace: with neither -trace nor -slow-pair, Finish
// only prints stats and never renders a manifest.
func TestFinishWithoutTrace(t *testing.T) {
	var c Campaign
	opt, err := c.Options(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if opt.Trace != nil {
		t.Error("trace attached without -trace/-slow-pair")
	}
	out := captureStderr(t, c.Finish)
	if out != "" {
		t.Errorf("quiet Finish wrote %q", out)
	}
}
