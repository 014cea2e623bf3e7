package main

import (
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// tinySweep is a two-point L3 sweep of speed-int at test size, screened
// analytically with escalation off.
func tinySweep(t *testing.T) config {
	t.Helper()
	cfg := config{
		suite: "cpu2017", mini: "speed-int", size: "test", n: 5000,
		screen: "analytic", escalate: "off",
	}
	if err := cfg.axes.Set("l3.size=1MiB,2MiB"); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestLocalAndServerAgree: the same flags sweep the same cells in
// process and through -addr, so points, values and knees are identical,
// and both modes reject a scenario knob other than sampling.
func TestLocalAndServerAgree(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	s := server.New(server.Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)

	cfg := tinySweep(t)
	local, err := sweepResult(ctx, cfg)
	if err != nil {
		t.Fatalf("in-process sweep: %v", err)
	}
	cfg.addr = ts.URL
	remote, err := sweepResult(ctx, cfg)
	if err != nil {
		t.Fatalf("-addr sweep: %v", err)
	}
	if len(local.Points) != 2 || len(local.Knees) == 0 {
		t.Fatalf("in-process sweep = %d points, %d knees; want 2 points and a knee report", len(local.Points), len(local.Knees))
	}
	if !reflect.DeepEqual(local.Points, remote.Points) {
		t.Errorf("points differ:\n in-process %+v\n -addr      %+v", local.Points, remote.Points)
	}
	if !reflect.DeepEqual(local.Knees, remote.Knees) {
		t.Errorf("knees differ:\n in-process %+v\n -addr      %+v", local.Knees, remote.Knees)
	}

	for _, addr := range []string{"", ts.URL} {
		cfg := tinySweep(t)
		cfg.addr, cfg.Scenario = addr, "rate=2"
		if _, err := sweepResult(ctx, cfg); err == nil || !strings.Contains(err.Error(), "-axis rate.copies") {
			t.Errorf("addr %q: -scenario rate=2 = %v, want a rejection pointing to -axis rate.copies", addr, err)
		}
	}
}

// TestScenarioSamplingOnly: the sampling knob reaches the spec; every
// other scenario knob is rejected before the modes split.
func TestScenarioSamplingOnly(t *testing.T) {
	for _, sc := range []string{"", "exact", "sampled", "sampling=default", "sampling=32768/4096/8192"} {
		cfg := tinySweep(t)
		cfg.Scenario = sc
		if _, err := cfg.sweepSpec(); err != nil {
			t.Errorf("-scenario %q: %v", sc, err)
		}
	}
	cfg := tinySweep(t)
	cfg.Scenario = "sampling=32768/4096/8192"
	if spec, _ := cfg.sweepSpec(); spec.Sampling != "32768/4096/8192" {
		t.Errorf("sampling = %q, want 32768/4096/8192", spec.Sampling)
	}
	for _, sc := range []string{"analytic", "j-pair=4", "rate=2", "topo=2P2E-random"} {
		cfg := tinySweep(t)
		cfg.Scenario = sc
		if _, err := cfg.sweepSpec(); err == nil {
			t.Errorf("-scenario %q accepted", sc)
		}
	}
	if _, err := (config{}).sweepSpec(); err == nil {
		t.Error("sweep without -axis accepted")
	}
}
