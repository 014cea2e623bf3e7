package main

import (
	"context"
	"testing"
)

// TestSmoke runs every workload for one pass at tiny sizes, untraced and
// traced: the summary line must carry every metric of its kind with a
// unit, the end-to-end metrics must be non-zero, the workload's own
// metrics must be reported, and every output check must pass (the smoke
// digests are recorded in digests.go).
func TestSmoke(t *testing.T) {
	own := map[string][]string{
		"paper-cold": {"paper_err_pct"},
		"serve-warm": {"req_p50_s", "req_p99_s", "loadgen.late_p99_s"},
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: defaultSeed, seconds: 1, trace: traced, smoke: true, out: t.TempDir()}
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: output checks failed: %v", name, traced, res.Checks)
			}
			want := endToEndNames
			if traced {
				want = layerMetricNames()
			}
			metrics := res.summary()["metrics"].(map[string]any)
			if len(metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(metrics), len(want))
			}
			for _, n := range want {
				m, ok := metrics[n].(map[string]any)
				if !ok || m["unit"] == "" {
					t.Errorf("%s trace=%v: metric %s missing or without a unit", name, traced, n)
					continue
				}
				if v := m["value"].(float64); !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, v)
				}
			}
			for _, n := range own[name] {
				if _, ok := res.Metrics[n]; !ok {
					t.Errorf("%s trace=%v: metric %s not reported", name, traced, n)
				}
			}
			if err := res.save(cfg.out); err != nil {
				t.Errorf("%s trace=%v: writing results: %v", name, traced, err)
			}
		}
	}
}
