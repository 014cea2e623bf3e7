package speckit

import (
	"encoding/json"
	"os"
	"testing"
)

// serveBaselines mirrors BENCH_serve.json: the trajectory of recorded
// specload runs plus the acceptance floors the latest entries must
// clear.
type serveBaselines struct {
	Trajectory []struct {
		Label     string  `json:"label"`
		Mode      string  `json:"mode"`
		Unique    bool    `json:"unique"`
		Errors    int     `json:"errors"`
		Pairs     int     `json:"total_pairs"`
		P99S      float64 `json:"p99_s"`
		PairsPerS float64 `json:"pairs_per_s"`
		Cells     int     `json:"cells"`
		CellsPerS float64 `json:"cells_per_s"`
		Screen    *struct {
			Cells int `json:"cells"`
		} `json:"screen_cell_latency"`
		Escalate *struct {
			Cells int `json:"cells"`
		} `json:"escalate_cell_latency"`
	} `json:"trajectory"`
	Floors map[string]float64 `json:"floors"`
}

// TestServeBenchBaselines gates the serving-tier baselines recorded in
// BENCH_serve.json: the latest cold-scatter run (unique campaigns, every
// pair simulated on the fleet) must clear the scatter throughput floor
// and p99 ceiling, and the latest warm run (repeat campaigns, served
// from the coordinator's store) must clear the far higher served floors.
// Like the kernel gate, it checks recorded numbers — not live timings a
// loaded CI machine would flake — so a serving regression is caught at
// re-record time and a stale record that never met the floors is caught
// on every run (make serve-smoke drives a live fleet for liveness).
func TestServeBenchBaselines(t *testing.T) {
	raw, err := os.ReadFile("BENCH_serve.json")
	if err != nil {
		t.Fatalf("reading baselines: %v", err)
	}
	var b serveBaselines
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("parsing BENCH_serve.json: %v", err)
	}
	floor := func(name string) float64 {
		f, ok := b.Floors[name]
		if !ok || f <= 0 {
			t.Fatalf("BENCH_serve.json missing floor %q", name)
		}
		return f
	}
	// Latest entry per mode wins: the trajectory accumulates, the gate
	// tracks the most recent record of each kind. Sweep-mode entries
	// form their own kind — they report cells, not pairs, so folding
	// them into the campaign gates would compare zeros to pair floors.
	latest := map[bool]int{true: -1, false: -1}
	latestSweep := -1
	for i, e := range b.Trajectory {
		if e.Mode == "sweeps" {
			latestSweep = i
			continue
		}
		latest[e.Unique] = i
	}
	checks := []struct {
		mode       string
		unique     bool
		minPairsPS string
		maxP99     string
	}{
		{"scatter", true, "scatter_pairs_per_s_min", "scatter_p99_s_max"},
		{"served", false, "served_pairs_per_s_min", "served_p99_s_max"},
	}
	for _, c := range checks {
		i := latest[c.unique]
		if i < 0 {
			t.Errorf("BENCH_serve.json has no %s (unique=%v) trajectory entry", c.mode, c.unique)
			continue
		}
		e := b.Trajectory[i]
		if e.Errors != 0 {
			t.Errorf("%s entry %q recorded %d campaign errors, want 0", c.mode, e.Label, e.Errors)
		}
		if e.Pairs <= 0 {
			t.Errorf("%s entry %q served no pairs", c.mode, e.Label)
		}
		if want := floor(c.minPairsPS); e.PairsPerS < want {
			t.Errorf("%s: recorded %.1f pairs/s below floor %.1f", c.mode, e.PairsPerS, want)
		} else {
			t.Logf("%s: %.1f pairs/s (floor %.1f)", c.mode, e.PairsPerS, want)
		}
		if max := floor(c.maxP99); e.P99S > max {
			t.Errorf("%s: recorded p99 %.3fs above ceiling %.3fs", c.mode, e.P99S, max)
		} else {
			t.Logf("%s: p99 %.3fs (ceiling %.3fs)", c.mode, e.P99S, max)
		}
	}

	// The latest sweep run must clear the cell-throughput floor and
	// carry the per-phase latency split the report exists to expose
	// (escalation was on, so both phases observed cells).
	if latestSweep < 0 {
		t.Error("BENCH_serve.json has no sweep-mode trajectory entry")
		return
	}
	e := b.Trajectory[latestSweep]
	if e.Errors != 0 {
		t.Errorf("sweep entry %q recorded %d errors, want 0", e.Label, e.Errors)
	}
	if want := floor("sweep_cells_per_s_min"); e.CellsPerS < want {
		t.Errorf("sweep: recorded %.1f cells/s below floor %.1f", e.CellsPerS, want)
	} else {
		t.Logf("sweep: %.1f cells/s (floor %.1f)", e.CellsPerS, want)
	}
	if e.Screen == nil || e.Screen.Cells <= 0 {
		t.Error("sweep entry lacks screen-phase cell latency quantiles")
	}
	if e.Escalate == nil || e.Escalate.Cells <= 0 {
		t.Error("sweep entry lacks escalate-phase cell latency quantiles")
	}
	if e.Screen != nil && e.Escalate != nil && e.Screen.Cells+e.Escalate.Cells != e.Cells {
		t.Errorf("sweep phase cells %d+%d do not cover the %d recorded cells",
			e.Screen.Cells, e.Escalate.Cells, e.Cells)
	}
}
