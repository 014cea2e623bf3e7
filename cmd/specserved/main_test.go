package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	speckit "repro"
)

// smokeStatus mirrors the server's campaign status JSON, keeping results
// raw so parity can be checked byte-for-byte.
type smokeStatus struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	Pairs    int    `json:"pairs"`
	Progress struct {
		Done      int `json:"done"`
		CacheHits int `json:"cache_hits"`
		StoreHits int `json:"store_hits"`
	} `json:"progress"`
	Error   string          `json:"error,omitempty"`
	Results json.RawMessage `json:"results"`
}

// specserved starts the built binary and returns its base URL plus the
// running command; callers stop it with SIGTERM and check the exit.
func specserved(t *testing.T, bin string, args ...string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	scanner := bufio.NewScanner(stdout)
	for scanner.Scan() {
		line := scanner.Text()
		if addr, ok := strings.CutPrefix(line, "specserved listening on "); ok {
			go func() { // keep draining stdout so the child never blocks
				for scanner.Scan() {
				}
			}()
			return "http://" + strings.TrimSpace(addr), cmd
		}
	}
	t.Fatalf("specserved never reported its address (scanner err: %v)", scanner.Err())
	return "", nil
}

func submitWait(t *testing.T, base string, spec map[string]any) smokeStatus {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/campaigns?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	var st smokeStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func sigtermAndWait(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("specserved exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("specserved did not drain within 30s of SIGTERM")
	}
}

// TestServeSmoke is the `make serve-smoke` gate: build the real binary,
// run one train-size campaign over HTTP, assert parity with the library,
// then restart on the same cache dir and assert the repeat is served
// entirely from the persistent store — zero pairs simulated — before
// draining cleanly on SIGTERM.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the specserved binary")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "specserved")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}
	cacheDir := filepath.Join(tmp, "speccache")
	const instructions = 10000
	spec := map[string]any{
		"suite": "cpu2017", "mini": "rate-int", "size": "train",
		"instructions": instructions,
	}

	// First server lifetime: simulate everything, write the store.
	base, cmd := specserved(t, bin, "-cache-dir", cacheDir, "-workers", "1")
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	first := submitWait(t, base, spec)
	if first.Status != "done" {
		t.Fatalf("first campaign = %s (%s)", first.Status, first.Error)
	}
	if first.Progress.CacheHits != 0 {
		t.Fatalf("first campaign had %d cache hits, want 0", first.Progress.CacheHits)
	}
	sigtermAndWait(t, cmd)

	// Parity with a direct library run under identical options.
	pairs := speckit.CPU2017().Mini(speckit.RateInt)
	direct, err := speckit.Characterize(pairs, speckit.Train, speckit.Options{Instructions: instructions})
	if err != nil {
		t.Fatal(err)
	}
	directJSON, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(directJSON, first.Results) {
		t.Error("served results are not bit-identical to a direct library run")
	}
	if first.Pairs != len(direct) {
		t.Errorf("served %d pairs, library produced %d", first.Pairs, len(direct))
	}

	// Second server lifetime on the same cache dir: the repeat campaign
	// must be served from the persistent store without simulating a
	// single pair, bit-identically.
	base2, cmd2 := specserved(t, bin, "-cache-dir", cacheDir, "-workers", "1")
	second := submitWait(t, base2, spec)
	if second.Status != "done" {
		t.Fatalf("second campaign = %s (%s)", second.Status, second.Error)
	}
	if second.Progress.StoreHits != second.Pairs || second.Progress.CacheHits != second.Pairs {
		t.Errorf("second campaign hits = %+v, want all %d pairs from the store tier",
			second.Progress, second.Pairs)
	}
	if !bytes.Equal(first.Results, second.Results) {
		t.Error("restarted server returned different bytes for the same campaign")
	}

	// The tier stats on the expvar mirror confirm zero simulated pairs.
	mresp, err := http.Get(base2 + "/metrics/expvar")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var metrics struct {
		Specserved struct {
			Pairs map[string]uint64 `json:"pairs"`
		} `json:"specserved"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if sim := metrics.Specserved.Pairs["simulated"]; sim != 0 {
		t.Errorf("restarted server simulated %d pairs, want 0", sim)
	}
	if fromStore := metrics.Specserved.Pairs["from_store"]; fromStore != uint64(second.Pairs) {
		t.Errorf("metrics from_store = %d, want %d", fromStore, second.Pairs)
	}
	sigtermAndWait(t, cmd2)
}

// TestRateSmoke is the `make rate-smoke` gate: build the real binary,
// run an N=4 rate-mode campaign over HTTP, assert parity with the
// library's shared-L3 kernel, then restart on the same cache dir and
// assert both the flat spec and the equivalent structured scenario spec
// are served from the persistent store — zero pairs simulated, bytes
// identical — with the rate-tier counters split out on the expvar
// mirror.
func TestRateSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the specserved binary")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "specserved")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}
	cacheDir := filepath.Join(tmp, "speccache")
	const instructions = 10000
	const copies = 4
	spec := map[string]any{
		"suite": "cpu2017", "mini": "rate-int", "size": "test",
		"instructions": instructions, "rate_copies": copies,
	}

	// First server lifetime: every rate pair simulates on the
	// interleaved kernel and lands in the store.
	base, cmd := specserved(t, bin, "-cache-dir", cacheDir, "-workers", "1")
	first := submitWait(t, base, spec)
	if first.Status != "done" {
		t.Fatalf("first rate campaign = %s (%s)", first.Status, first.Error)
	}
	if first.Progress.CacheHits != 0 {
		t.Fatalf("first rate campaign had %d cache hits, want 0", first.Progress.CacheHits)
	}
	sigtermAndWait(t, cmd)

	// Parity with a direct library run under the same scenario.
	pairs := speckit.CPU2017().Mini(speckit.RateInt)
	direct, err := speckit.Characterize(pairs, speckit.Test,
		speckit.Options{Instructions: instructions, Scenario: speckit.Scenario{RateCopies: copies}})
	if err != nil {
		t.Fatal(err)
	}
	directJSON, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(directJSON, first.Results) {
		t.Error("served rate results are not bit-identical to a direct library run")
	}

	// Second lifetime on the same cache dir: the flat spec and the
	// structured scenario spelling of the same campaign are both served
	// from the store, byte-identically, with zero simulation.
	base2, cmd2 := specserved(t, bin, "-cache-dir", cacheDir, "-workers", "1")
	second := submitWait(t, base2, spec)
	if second.Status != "done" {
		t.Fatalf("second rate campaign = %s (%s)", second.Status, second.Error)
	}
	if second.Progress.StoreHits != second.Pairs {
		t.Errorf("second rate campaign hits = %+v, want all %d pairs from the store tier",
			second.Progress, second.Pairs)
	}
	if !bytes.Equal(first.Results, second.Results) {
		t.Error("restarted server returned different bytes for the same rate campaign")
	}
	structured := submitWait(t, base2, map[string]any{
		"suite": "cpu2017", "mini": "rate-int", "size": "test",
		"instructions": instructions,
		"scenario":     map[string]any{"rate_copies": copies},
	})
	if structured.Status != "done" {
		t.Fatalf("structured scenario campaign = %s (%s)", structured.Status, structured.Error)
	}
	if !bytes.Equal(first.Results, structured.Results) {
		t.Error("structured scenario spec keyed a different result than the flat spec")
	}

	// The expvar mirror splits the rate tier out: everything was served
	// from the store, nothing simulated in either accounting mode.
	mresp, err := http.Get(base2 + "/metrics/expvar")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var metrics struct {
		Specserved struct {
			Pairs map[string]uint64 `json:"pairs"`
		} `json:"specserved"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if sim := metrics.Specserved.Pairs["rate_simulated"] + metrics.Specserved.Pairs["simulated"]; sim != 0 {
		t.Errorf("restarted server simulated %d pairs, want 0", sim)
	}
	served := metrics.Specserved.Pairs["rate_from_store"] + metrics.Specserved.Pairs["rate_from_memory"]
	if served != uint64(second.Pairs+structured.Pairs) {
		t.Errorf("rate tier served %d pairs, want %d", served, second.Pairs+structured.Pairs)
	}
	sigtermAndWait(t, cmd2)
}

// TestFleetSmoke is the `make fleet-smoke` gate: build the real
// binaries, start two worker specserveds and a coordinator in front of
// them, drive campaigns through the specload generator under generous
// SLO gates, and assert digest parity — the sharded campaign's results
// must be byte-identical to the same spec run directly on one worker,
// and a coordinator resubmission must be served locally.
func TestFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the specserved and specload binaries")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "specserved")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build specserved: %v", err)
	}
	loadBin := filepath.Join(tmp, "specload")
	build = exec.Command("go", "build", "-o", loadBin, "../specload")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build specload: %v", err)
	}

	// Two workers with deliberately different base windows (-n): the
	// coordinator must forward the campaign's merged window explicitly,
	// so worker flag drift on spec-overridable knobs cannot skew bits.
	w1, w1cmd := specserved(t, bin, "-workers", "2", "-n", "111111")
	w2, w2cmd := specserved(t, bin, "-workers", "2", "-n", "222222")
	coord, coordCmd := specserved(t, bin,
		"-coordinator", w1+","+w2, "-fleet-chunk", "2",
		"-cache-dir", filepath.Join(tmp, "coordstore"), "-workers", "1")

	const instructions = 10000
	spec := map[string]any{
		"suite": "cpu2017", "mini": "rate-int", "size": "test",
		"instructions": instructions,
	}

	// Drive the coordinator through specload: 3 campaigns, 2 in flight,
	// generous gates (this is a smoke liveness check, not a perf run).
	load := exec.Command(loadBin,
		"-addr", coord, "-campaigns", "3", "-concurrency", "2",
		"-suite", "cpu2017", "-mini", "rate-int", "-size", "test",
		"-n", fmt.Sprint(instructions),
		"-slo-p99", "60s", "-min-pairs-per-sec", "0.1")
	load.Stderr = os.Stderr
	loadOut, err := load.Output()
	if err != nil {
		t.Fatalf("specload failed: %v", err)
	}
	var rep struct {
		Errors     int     `json:"errors"`
		TotalPairs int     `json:"total_pairs"`
		P99S       float64 `json:"p99_s"`
		PairsPS    float64 `json:"pairs_per_s"`
	}
	if err := json.Unmarshal(loadOut, &rep); err != nil {
		t.Fatalf("parsing specload report: %v\n%s", err, loadOut)
	}
	if rep.Errors != 0 || rep.TotalPairs == 0 || rep.PairsPS <= 0 {
		t.Fatalf("specload report %+v: campaigns failed or no throughput", rep)
	}

	// Digest parity: a coordinator resubmission (served from its own
	// tiers, zero remote) and a direct run on worker 1 must both return
	// the same bytes the sharded campaign produced.
	sharded := submitWait(t, coord, spec)
	if sharded.Status != "done" {
		t.Fatalf("coordinator campaign = %s (%s)", sharded.Status, sharded.Error)
	}
	if sharded.Progress.CacheHits != sharded.Pairs {
		t.Errorf("resubmission hits = %+v, want all %d pairs served locally",
			sharded.Progress, sharded.Pairs)
	}
	direct := submitWait(t, w1, spec)
	if direct.Status != "done" {
		t.Fatalf("direct worker campaign = %s (%s)", direct.Status, direct.Error)
	}
	if !bytes.Equal(sharded.Results, direct.Results) {
		t.Error("sharded results are not byte-identical to a direct single-worker run")
	}

	// The coordinator's own accounting: pairs came from the fleet, none
	// were simulated in-process.
	mresp, err := http.Get(coord + "/metrics/expvar")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Specserved struct {
			Pairs map[string]uint64 `json:"pairs"`
		} `json:"specserved"`
	}
	err = json.NewDecoder(mresp.Body).Decode(&metrics)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Specserved.Pairs["simulated"] != 0 {
		t.Errorf("coordinator simulated %d pairs itself, want 0", metrics.Specserved.Pairs["simulated"])
	}
	if metrics.Specserved.Pairs["from_remote"] == 0 {
		t.Error("coordinator reports zero remote pairs after a sharded campaign")
	}

	sigtermAndWait(t, coordCmd)
	sigtermAndWait(t, w1cmd)
	sigtermAndWait(t, w2cmd)
}

// submitSweepWait posts a sweep spec with ?wait=1 and returns the final
// status with the result kept raw for byte-identity checks.
func submitSweepWait(t *testing.T, base string, spec map[string]any) (status, errMsg string, result json.RawMessage) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/sweeps?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("sweep submit = %d: %s", resp.StatusCode, raw)
	}
	var st struct {
		Status string          `json:"status"`
		Error  string          `json:"error,omitempty"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Status, st.Error, st.Result
}

// sweepCells scrapes the expvar mirror's sweeps.cells block.
func sweepCells(t *testing.T, base string) map[string]uint64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics/expvar")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var metrics struct {
		Specserved struct {
			Sweeps struct {
				Cells map[string]uint64 `json:"cells"`
			} `json:"sweeps"`
		} `json:"specserved"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	return metrics.Specserved.Sweeps.Cells
}

// TestSweepSmoke is the `make sweep-smoke` gate: build the real
// binaries, run a 2x2x2 design-space sweep over /v1/sweeps, restart the
// server on the same cache dir, re-run the identical sweep and assert
// it simulates zero cells while reproducing the result — knee report
// included — byte for byte; then drive the same grid through the
// specsweep CLI against the live server.
func TestSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the specserved and specsweep binaries")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "specserved")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build specserved: %v", err)
	}
	sweepBin := filepath.Join(tmp, "specsweep")
	build = exec.Command("go", "build", "-o", sweepBin, "../specsweep")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build specsweep: %v", err)
	}

	cacheDir := filepath.Join(tmp, "speccache")
	spec := map[string]any{
		"suite": "cpu2017", "mini": "rate-int", "size": "test",
		"instructions": 10000,
		"axes": []map[string]any{
			{"param": "l3.size", "values": []int64{1 << 20, 2 << 20}},
			{"param": "l2.size", "values": []int64{128 << 10, 256 << 10}},
			{"param": "l1d.size", "values": []int64{16 << 10, 32 << 10}},
		},
	}

	// First lifetime: every screen cell is simulated, escalation runs.
	base, cmd := specserved(t, bin, "-cache-dir", cacheDir, "-workers", "1")
	status, errMsg, first := submitSweepWait(t, base, spec)
	if status != "done" {
		t.Fatalf("first sweep = %s (%s)", status, errMsg)
	}
	cells := sweepCells(t, base)
	if cells["screen_simulated"] == 0 || cells["escalate_simulated"] == 0 {
		t.Fatalf("cold sweep cells = %v, want simulated screen and escalate work", cells)
	}
	sigtermAndWait(t, cmd)

	// Second lifetime on the same store: zero simulated cells, and the
	// full result — grid, counters aside, knee reports — is
	// byte-identical.
	base2, cmd2 := specserved(t, bin, "-cache-dir", cacheDir, "-workers", "1")
	status, errMsg, second := submitSweepWait(t, base2, spec)
	if status != "done" {
		t.Fatalf("second sweep = %s (%s)", status, errMsg)
	}
	cells = sweepCells(t, base2)
	if cells["screen_simulated"] != 0 || cells["escalate_simulated"] != 0 {
		t.Errorf("restarted server simulated sweep cells: %v, want 0", cells)
	}
	if cells["screen_store"] == 0 {
		t.Errorf("restarted server cells = %v, want store-served screen cells", cells)
	}

	// The result embeds the cell scoreboard, which legitimately differs
	// between a cold and a warm run — compare the science: grid points
	// and knee reports.
	var r1, r2 struct {
		Points json.RawMessage `json:"points"`
		Knees  json.RawMessage `json:"knees"`
	}
	if err := json.Unmarshal(first, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &r2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1.Points, r2.Points) {
		t.Error("restarted server returned a different grid for the same sweep")
	}
	if !bytes.Equal(r1.Knees, r2.Knees) {
		t.Errorf("restarted server returned a different knee report:\n%s\n%s", r1.Knees, r2.Knees)
	}

	// The specsweep CLI drives the same grid over HTTP and renders it.
	cli := exec.Command(sweepBin, "-addr", base2,
		"-mini", "rate-int", "-size", "test", "-n", "10000",
		"-axis", "l3.size=1MiB,2MiB", "-axis", "l2.size=128KiB,256KiB", "-axis", "l1d.size=16KiB,32KiB")
	cli.Stderr = os.Stderr
	cliOut, err := cli.Output()
	if err != nil {
		t.Fatalf("specsweep failed: %v", err)
	}
	if !bytes.Contains(cliOut, []byte("Design-space grid (8 points")) ||
		!bytes.Contains(cliOut, []byte("Knee report:")) {
		t.Errorf("specsweep output missing tables:\n%s", cliOut)
	}
	sigtermAndWait(t, cmd2)
}

// TestServeSmokeMetrics is the `make metrics-smoke` gate: the binary's
// /metrics endpoint serves valid Prometheus text with the tier-split
// pair counters and stage histograms after a campaign runs.
func TestServeSmokeMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the specserved binary")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "specserved")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}
	base, cmd := specserved(t, bin, "-workers", "1")
	st := submitWait(t, base, map[string]any{
		"suite": "cpu2017", "mini": "rate-int", "size": "test", "instructions": 10000,
	})
	if st.Status != "done" {
		t.Fatalf("campaign = %s (%s)", st.Status, st.Error)
	}

	// The server counts a request after its handler returns, and a
	// ?wait=1 response body can reach the client before that: scrape,
	// with a deadline, until the submit is counted before asserting.
	const submitSeries = `speckit_http_requests_total{code="200",route="submit"} 1`
	var text, ct string
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		text, ct = scrapeMetrics(t, base)
		if strings.Contains(text, submitSeries+"\n") || time.Now().After(deadline) {
			break
		}
	}
	if !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text exposition 0.0.4", ct)
	}
	for _, series := range []string{
		`speckit_served_pairs_total{mode="exact",source="simulated"} ` + fmt.Sprint(st.Pairs),
		`speckit_pairs_total{source="simulated"} ` + fmt.Sprint(st.Pairs),
		`speckit_stage_seconds_bucket{stage="detail",le="+Inf"}`,
		`speckit_pair_seconds_bucket{source="simulated",le="+Inf"}`,
		submitSeries,
		`speckit_http_request_seconds_bucket{route="submit",le="+Inf"} 1`,
		`speckit_server_queue_depth 0`,
		`speckit_server_jobs{state="running"} 0`,
		`speckit_campaigns_total 1`,
		`speckit_workers_active 0`,
	} {
		if !strings.Contains(text, series+"\n") && !strings.Contains(text, series+" ") {
			t.Errorf("/metrics missing series %q", series)
		}
	}
	// Every sample line must carry a parseable float value.
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Fatalf("non-numeric sample value in %q: %v", line, err)
		}
	}
	sigtermAndWait(t, cmd)
}

// scrapeMetrics fetches /metrics and returns its body and Content-Type.
func scrapeMetrics(t *testing.T, base string) (text, contentType string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw), resp.Header.Get("Content-Type")
}

// TestServeSmokeDrainsInFlight: SIGTERM while a campaign is running
// still exits cleanly, with the job completed or reported cancelled.
func TestServeSmokeDrainsInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the specserved binary")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "specserved")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}
	base, cmd := specserved(t, bin, "-workers", "1", "-drain-grace", "2s")

	// A big window keeps the campaign in flight when SIGTERM lands.
	body, _ := json.Marshal(map[string]any{
		"suite": "cpu2017", "size": "ref", "instructions": 5000000,
	})
	resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st smokeStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	// Give the worker a moment to pick the campaign up, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		r, err := http.Get(fmt.Sprintf("%s/v1/campaigns/%s?results=0", base, st.ID))
		if err != nil {
			t.Fatal(err)
		}
		var cur smokeStatus
		json.NewDecoder(r.Body).Decode(&cur)
		r.Body.Close()
		if cur.Status == "running" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	sigtermAndWait(t, cmd)
}
