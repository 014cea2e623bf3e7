package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/profile"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden metrics file from current results")

// goldenPairs are the application-input pairs pinned by the golden
// regression test: two memory-bound integer codes, a compute-bound
// integer code, and three floating-point codes spanning the footprint
// range, so a kernel regression in any subsystem moves at least one row.
var goldenPairs = []string{
	"505.mcf_r",
	"520.omnetpp_r",
	"525.x264_r",
	"503.bwaves_r",
	"519.lbm_r",
	"554.roms_r",
}

// goldenRow is the serialized form of one pair's Characteristics: every
// derived metric plus the raw counters, enough to detect any behavioural
// change in the simulation kernel or the metric derivations.
type goldenRow struct {
	Pair          string            `json:"pair"`
	IPC           float64           `json:"ipc"`
	ExecSeconds   float64           `json:"exec_seconds"`
	LoadPct       float64           `json:"load_pct"`
	StorePct      float64           `json:"store_pct"`
	BranchPct     float64           `json:"branch_pct"`
	CondPct       float64           `json:"cond_pct"`
	JumpPct       float64           `json:"jump_pct"`
	CallPct       float64           `json:"call_pct"`
	IndirectPct   float64           `json:"indirect_pct"`
	ReturnPct     float64           `json:"return_pct"`
	MispredictPct float64           `json:"mispredict_pct"`
	L1MissPct     float64           `json:"l1_miss_pct"`
	L2MissPct     float64           `json:"l2_miss_pct"`
	L3MissPct     float64           `json:"l3_miss_pct"`
	RSSMiB        float64           `json:"rss_mib"`
	VSZMiB        float64           `json:"vsz_mib"`
	Calibrated    bool              `json:"calibrated"`
	Counters      map[string]uint64 `json:"counters"`
}

const goldenPath = "testdata/golden_metrics.json"

func goldenModels(t *testing.T) []profile.Pair {
	t.Helper()
	byName := map[string]*profile.Profile{}
	for _, app := range profile.CPU2017() {
		byName[app.Name] = app
	}
	pairs := make([]profile.Pair, 0, len(goldenPairs))
	for _, name := range goldenPairs {
		app, ok := byName[name]
		if !ok {
			t.Fatalf("golden pair %s not in CPU2017 profile set", name)
		}
		pairs = append(pairs, app.Expand(profile.Ref)[0])
	}
	return pairs
}

// goldenScenarios are the measurement scenarios the golden test pins,
// all at the same six pairs and window. The exact row keeps its
// field-per-metric file; every other scenario pins each pair's full
// CharacteristicsCodec record, so the Sampling, Rate and Runtime
// extensions are covered too.
var goldenScenarios = []struct {
	name, scenario string
}{
	{"exact", ""},
	{"sampled", "sampling=16384/2048/2048"},
	{"analytic", "analytic"},
	{"j-pair", "j-pair=2"},
	{"rate", "rate=2"},
	{"topo", "topo=1P1E-random"},
}

// goldenFile names a scenario's golden file.
func goldenFile(name string) string {
	if name == "exact" {
		return goldenPath
	}
	return "testdata/golden_" + name + ".json"
}

func goldenRun(t *testing.T, scenario string) []Characteristics {
	t.Helper()
	sc, err := ParseScenario(scenario)
	if err != nil {
		t.Fatal(err)
	}
	chars, err := Characterize(goldenModels(t), Options{
		Machine:      machine.HaswellScaled(),
		Instructions: 100000,
		Parallelism:  2,
		Scenario:     sc,
	})
	if err != nil {
		t.Fatalf("Characterize(%q): %v", scenario, err)
	}
	return chars
}

func goldenRows(chars []Characteristics) []goldenRow {
	rows := make([]goldenRow, len(chars))
	for i := range chars {
		c := &chars[i]
		counters := map[string]uint64{}
		for _, name := range c.Counters.Names() {
			counters[name] = c.Counters.MustValue(name)
		}
		rows[i] = goldenRow{
			Pair:          c.Pair.Name(),
			IPC:           c.IPC,
			ExecSeconds:   c.ExecSeconds,
			LoadPct:       c.LoadPct,
			StorePct:      c.StorePct,
			BranchPct:     c.BranchPct,
			CondPct:       c.CondPct,
			JumpPct:       c.JumpPct,
			CallPct:       c.CallPct,
			IndirectPct:   c.IndirectPct,
			ReturnPct:     c.ReturnPct,
			MispredictPct: c.MispredictPct,
			L1MissPct:     c.L1MissPct,
			L2MissPct:     c.L2MissPct,
			L3MissPct:     c.L3MissPct,
			RSSMiB:        c.RSSMiB,
			VSZMiB:        c.VSZMiB,
			Calibrated:    c.Calibrated,
			Counters:      counters,
		}
	}
	return rows
}

// diffRow lists the fields in which two golden rows differ, with values,
// so a regression reads as "505.mcf_r: L2MissPct: 41.2 != 43.7" rather
// than a JSON blob dump.
func diffRow(want, got *goldenRow) []string {
	var diffs []string
	wv, gv := reflect.ValueOf(*want), reflect.ValueOf(*got)
	for i := 0; i < wv.NumField(); i++ {
		f := wv.Type().Field(i)
		if f.Name == "Counters" {
			continue
		}
		a, b := wv.Field(i).Interface(), gv.Field(i).Interface()
		if !reflect.DeepEqual(a, b) {
			diffs = append(diffs, fmt.Sprintf("%s: golden %v != got %v", f.Name, a, b))
		}
	}
	names := map[string]bool{}
	for n := range want.Counters {
		names[n] = true
	}
	for n := range got.Counters {
		names[n] = true
	}
	for n := range names {
		a, aok := want.Counters[n]
		b, bok := got.Counters[n]
		if !aok || !bok || a != b {
			diffs = append(diffs, fmt.Sprintf("counter %s: golden %d (present=%v) != got %d (present=%v)", n, a, aok, b, bok))
		}
	}
	return diffs
}

// TestGoldenMetrics locks the end-to-end characterization pipeline to
// committed snapshots, one per scenario: any change to the generator,
// a simulation kernel or the metric derivations that alters a single
// counter for any of the six pinned pairs under any pinned scenario
// fails with a field-level diff. Refresh intentionally changed
// baselines with:
//
//	go test ./internal/core -run TestGoldenMetrics -update
func TestGoldenMetrics(t *testing.T) {
	for _, sc := range goldenScenarios {
		t.Run(sc.name, func(t *testing.T) {
			chars := goldenRun(t, sc.scenario)
			switch sc.name {
			case "exact":
				checkGoldenRows(t, goldenRows(chars))
				return
			case "sampled":
				// A sampled row that fell back to exact simulation would
				// pin the exact path twice and the sampled one never.
				for i := range chars {
					if s := chars[i].Sampling; s == nil || s.Windows == 0 {
						t.Fatalf("%s: no sampled windows (%+v)", chars[i].Pair.Name(), s)
					}
				}
			case "j-pair":
				// A K=1 fallback would reproduce the exact counters on
				// every row; split windows differ on most of them.
				requireCountersDiffer(t, chars)
			}
			checkGoldenRecords(t, goldenFile(sc.name), chars)
		})
	}
}

// requireCountersDiffer fails unless at least one row's counters differ
// from the exact golden row of the same pair.
func requireCountersDiffer(t *testing.T, chars []Characteristics) {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var exact []goldenRow
	if err := json.Unmarshal(data, &exact); err != nil {
		t.Fatal(err)
	}
	got := goldenRows(chars)
	for i := range got {
		if i < len(exact) && !reflect.DeepEqual(got[i].Counters, exact[i].Counters) {
			return
		}
	}
	t.Fatal("every row's counters equal the exact golden row: the scenario fell back to exact simulation")
}

// checkGoldenRecords compares each pair's encoded record with the
// golden file's, or rewrites the file under -update.
func checkGoldenRecords(t *testing.T, path string, chars []Characteristics) {
	t.Helper()
	got := make([]json.RawMessage, len(chars))
	for i := range chars {
		rec, err := CharacteristicsCodec{}.Encode(chars[i])
		if err != nil {
			t.Fatalf("%s: encode: %v", chars[i].Pair.Name(), err)
		}
		got[i] = rec
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d pairs", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want []json.RawMessage
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file %s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d pairs, fresh run produced %d", path, len(want), len(got))
	}
	for i := range want {
		var compact bytes.Buffer
		if err := json.Compact(&compact, want[i]); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(compact.Bytes(), got[i]) {
			continue
		}
		for _, d := range diffRecords(compact.Bytes(), got[i]) {
			t.Errorf("%s: %s", chars[i].Pair.Name(), d)
		}
	}
}

// diffRecords lists the top-level fields in which two encoded records
// differ, with both values.
func diffRecords(want, got []byte) []string {
	var w, g map[string]json.RawMessage
	if json.Unmarshal(want, &w) != nil || json.Unmarshal(got, &g) != nil {
		return []string{fmt.Sprintf("record: golden %s != got %s", want, got)}
	}
	var diffs []string
	for k := range w {
		if !bytes.Equal(w[k], g[k]) {
			diffs = append(diffs, fmt.Sprintf("%s: golden %s != got %s", k, w[k], g[k]))
		}
	}
	for k := range g {
		if _, ok := w[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: absent from golden, got %s", k, g[k]))
		}
	}
	return diffs
}

// checkGoldenRows is the exact scenario's field-per-metric comparison.
func checkGoldenRows(t *testing.T, got []goldenRow) {
	t.Helper()
	for i := range got {
		for _, f := range []float64{got[i].IPC, got[i].L1MissPct, got[i].L2MissPct, got[i].L3MissPct} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				t.Fatalf("%s: non-finite metric in fresh results", got[i].Pair)
			}
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d pairs", goldenPath, len(got))
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want []goldenRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d pairs, fresh run produced %d (run with -update after intentional changes)", len(want), len(got))
	}
	for i := range want {
		if want[i].Pair != got[i].Pair {
			t.Errorf("pair %d: golden %s != got %s", i, want[i].Pair, got[i].Pair)
			continue
		}
		for _, d := range diffRow(&want[i], &got[i]) {
			t.Errorf("%s: %s", want[i].Pair, d)
		}
	}
}
