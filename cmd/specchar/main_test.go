package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	speckit "repro"
	"repro/internal/cliflags"
)

func TestPickSuite(t *testing.T) {
	for _, name := range []string{"cpu2017", "CPU17", "cpu2006", "cpu06"} {
		if _, err := pickSuite(name); err != nil {
			t.Errorf("pickSuite(%q): %v", name, err)
		}
	}
	if _, err := pickSuite("spec95"); err == nil {
		t.Error("unknown suite accepted")
	}
}

func TestFilterMini(t *testing.T) {
	suite, _ := pickSuite("cpu2017")
	counts := map[string]int{
		"all": 43, "rate-int": 10, "rate-fp": 13, "speed-int": 10, "speed-fp": 10,
	}
	for mini, want := range counts {
		got, err := filterMini(suite, mini)
		if err != nil {
			t.Fatalf("filterMini(%q): %v", mini, err)
		}
		if len(got) != want {
			t.Errorf("filterMini(%q) = %d apps, want %d", mini, len(got), want)
		}
	}
	if _, err := filterMini(suite, "rate-complex"); err == nil {
		t.Error("unknown mini accepted")
	}
}

func TestPickSize(t *testing.T) {
	for _, name := range []string{"test", "train", "ref", "REF"} {
		if _, err := pickSize(name); err != nil {
			t.Errorf("pickSize(%q): %v", name, err)
		}
	}
	if _, err := pickSize("huge"); err == nil {
		t.Error("unknown size accepted")
	}
}

// TestRunSmoke drives the tool end to end on a small mini-suite.
func TestRunSmoke(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, config{suite: "cpu2017", mini: "rate-int", size: "test", n: 15000}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run(ctx, config{suite: "cpu2006", mini: "all", size: "ref", n: 10000, csv: true,
		Campaign: cliflags.Campaign{Progress: true, Batch: 256}}); err != nil {
		t.Fatalf("csv run: %v", err)
	}
	if err := run(ctx, config{suite: "bogus", mini: "all", size: "ref", n: 1000}); err == nil {
		t.Error("bogus suite accepted")
	}
}

// TestRunCacheDir: a second run against the same -cache-dir is served
// from the persistent store and produces the same output.
func TestRunCacheDir(t *testing.T) {
	dir := t.TempDir()
	cfg := config{suite: "cpu2017", mini: "rate-int", size: "test", n: 10000,
		Campaign: cliflags.Campaign{CacheDir: dir}}
	if err := run(context.Background(), cfg); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := run(context.Background(), cfg); err != nil {
		t.Fatalf("store-served run: %v", err)
	}
}

// TestRunCancelledContext: a pre-cancelled context (as Ctrl-C produces)
// aborts the campaign with the context's error instead of running it.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, config{suite: "cpu2017", mini: "rate-int", size: "test", n: 10000})
	if err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunTraceManifest is the observability acceptance gate: a sampled
// campaign run with -trace must produce a valid JSONL manifest whose
// per-pair span durations account (within tolerance) for the campaign
// wall time when pairs run sequentially.
func TestRunTraceManifest(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "run.jsonl")
	cfg := config{
		suite: "cpu2017", mini: "rate-int", size: "test", n: 1000000,
		Campaign: cliflags.Campaign{
			TraceFile:   traceFile,
			Scenario:    "sampling=131072/4096/4096",
			Parallelism: 1, // sequential, so pair spans tile the campaign span
		},
	}
	start := time.Now()
	if err := run(context.Background(), cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	wall := time.Since(start)

	manifest, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	header, spans, err := speckit.ReadManifest(bytes.NewReader(manifest))
	if err != nil {
		t.Fatalf("invalid manifest: %v", err)
	}
	if header.Spans != len(spans) {
		t.Fatalf("header declares %d spans, manifest has %d", header.Spans, len(spans))
	}

	var campaign *speckit.ManifestSpan
	var pairSum, campaignDur time.Duration
	pairs := 0
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Name == "campaign":
			campaign = s
			campaignDur = time.Duration(s.DurUS) * time.Microsecond
		case s.Attrs["tier"] != nil:
			pairs++
			pairSum += time.Duration(s.DurUS) * time.Microsecond
			if s.Attrs["tier"] != "simulated" {
				t.Errorf("%s tier = %v, want simulated (cold cache)", s.Name, s.Attrs["tier"])
			}
		}
	}
	if campaign == nil {
		t.Fatal("no campaign root span")
	}
	if pairs != 22 { // rate-int test-size application-input pairs
		t.Fatalf("pair spans = %d, want 22", pairs)
	}
	if campaignDur > wall {
		t.Errorf("campaign span %s exceeds measured wall time %s", campaignDur, wall)
	}
	// Sequential pairs: their spans must account for most of the
	// campaign and can never exceed it (generous floor — scheduling and
	// table rendering live outside the pair spans).
	if pairSum > campaignDur+10*time.Millisecond {
		t.Errorf("pair spans sum to %s, more than the %s campaign", pairSum, campaignDur)
	}
	if pairSum < campaignDur/2 {
		t.Errorf("pair spans sum to %s, under half the %s campaign", pairSum, campaignDur)
	}
}
