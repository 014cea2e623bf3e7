// Fleet e2e: a coordinator in front of in-process worker specserveds
// (httptest) must serve sharded campaigns bit-identical to a single-node
// run — same results, same store records — and must survive a worker
// dying mid-campaign with zero lost pairs.
package server_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/store"
)

// startWorkers boots n real worker servers (each with its own cache and
// store) and returns their RemoteWorkers plus a kill func per worker.
func startWorkers(t *testing.T, n int, base core.Options) ([]server.RemoteWorker, []func()) {
	t.Helper()
	workers := make([]server.RemoteWorker, n)
	kill := make([]func(), n)
	for i := 0; i < n; i++ {
		opt := base
		opt.Cache = sched.NewCache()
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opt.Store = st
		s := server.New(server.Config{Workers: 2, QueueDepth: 32, Characterize: opt})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(s.Drain)
		workers[i] = fleet.Worker(ts.URL)
		kill[i] = func() {
			// Sever live connections first so in-flight sub-campaigns on
			// this worker observe a client disconnect (and are cancelled)
			// instead of Close blocking on them.
			ts.CloseClientConnections()
			ts.Close()
		}
	}
	return workers, kill
}

func newCoordinator(t *testing.T, workers []server.RemoteWorker, chunk int, base core.Options) (*server.Server, *client.Client, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base.Cache = sched.NewCache()
	base.Store = st
	s := server.New(server.Config{
		Workers: 1, QueueDepth: 8, FleetChunk: chunk,
		Fleet: workers, Characterize: base,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)
	return s, client.New(ts.URL), dir
}

// storeKeys returns the set of record keys a store directory holds.
func storeKeys(t *testing.T, dir string) map[string]bool {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, k := range st.Keys() {
		keys[k] = true
	}
	return keys
}

// baseline runs the same campaign in-process through core.Characterize
// with its own store, returning the results and the store's record keys.
func baseline(t *testing.T, spec server.CampaignSpec, instructions uint64) ([]core.Characteristics, map[string]bool) {
	t.Helper()
	pairs, err := server.ResolveSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Characterize(pairs, core.Options{
		Instructions: instructions, Cache: sched.NewCache(), Store: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	return want, storeKeys(t, dir)
}

func asJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFleetShardedBitIdentical: a campaign scattered over 3 workers
// returns results bit-identical to a single-node run of the same spec
// and populates the coordinator's store with exactly the same records.
// Worker base options deliberately differ from the campaign's, proving
// the coordinator forwards the merged window explicitly instead of
// relying on fleet-wide flag agreement for spec-overridable knobs.
func TestFleetShardedBitIdentical(t *testing.T) {
	const instructions = 20000
	spec := server.CampaignSpec{Suite: "cpu2017", Mini: "rate-int", Size: "test", Instructions: instructions}

	workers, _ := startWorkers(t, 3, core.Options{Instructions: 11111, Parallelism: 2})
	_, c, coordStore := newCoordinator(t, workers, 2, core.Options{Instructions: 77777, Parallelism: 2})
	ctx := ctxT(t)
	before := scrape(t, c)

	st, err := c.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatalf("sharded campaign: %v", err)
	}
	if st.Status != server.StatusDone {
		t.Fatalf("status %s: %s", st.Status, st.Error)
	}
	want, wantKeys := baseline(t, spec, instructions)
	if len(st.Results) != len(want) {
		t.Fatalf("sharded campaign returned %d results, single-node %d", len(st.Results), len(want))
	}
	if !bytes.Equal(asJSON(t, st.Results), asJSON(t, want)) {
		t.Error("sharded results differ from the single-node run")
	}
	if st.Progress.Remote != len(want) || st.Progress.Done != len(want) {
		t.Errorf("progress = %+v, want all %d pairs done remotely", st.Progress, len(want))
	}
	if st.ManifestDigest == "" {
		t.Error("fleet campaign published no manifest digest")
	}

	gotKeys := storeKeys(t, coordStore)
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("coordinator store holds %d records, single-node %d", len(gotKeys), len(wantKeys))
	}
	for k := range wantKeys {
		if !gotKeys[k] {
			t.Errorf("store record %s missing from the coordinator store", k)
		}
	}

	assertRemoteTally(t, st.Progress, before, scrape(t, c), "exact", len(want))

	// A resubmission is served entirely from the coordinator's own
	// tiers: no pair goes back to the fleet.
	st2, err := c.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatalf("resubmission: %v", err)
	}
	if st2.Progress.CacheHits != len(want) || st2.Progress.Remote != 0 {
		t.Errorf("resubmission progress = %+v, want %d local cache hits and 0 remote", st2.Progress, len(want))
	}
	if !bytes.Equal(asJSON(t, st2.Results), asJSON(t, want)) {
		t.Error("locally re-served results differ from the single-node run")
	}
}

// assertRemoteTally checks a coordinator's accounting of a scattered
// campaign: its progress shows every pair done remotely and none
// simulated, and /metrics grew speckit_served_pairs_total{mode,
// source="remote"} by n. Only a coordinator tallies remote pairs; the
// in-process workers add their own simulated ones to the shared
// registry, so "none simulated" is read from the job itself.
func assertRemoteTally(t *testing.T, p server.ProgressStatus, before, after, mode string, n int) {
	t.Helper()
	if p.Remote != n || p.Done-p.CacheHits-p.Remote != 0 {
		t.Errorf("progress = %+v, want %d pairs remote and 0 simulated on a coordinator", p, n)
	}
	if d := servedDelta(before, after, mode, "remote"); d != float64(n) {
		t.Errorf("%s remote pairs grew by %v, want %d", mode, d, n)
	}
}

// fleetScenarioBitIdentical scatters a campaign carrying the scenario
// string over three workers and checks it against a single-node run of
// the typed scenario it spells: bit-identical results, the same store
// record keys (every non-default scenario carries its own key suffix, so
// matching key sets prove the scenario survived the scatter), the pairs
// tallied as remote in the scenario's metrics mode, and a resubmission
// served from the coordinator's own tiers. The workers' base options
// carry no scenario knob and a different window, so a match proves the
// coordinator forwards the scenario in every chunk spec rather than
// relying on fleet-wide flag agreement.
func fleetScenarioBitIdentical(t *testing.T, instructions uint64, scenario string, sc core.Scenario, mode string) {
	t.Helper()
	spec := server.CampaignSpec{
		Suite: "cpu2017", Mini: "rate-int", Size: "test",
		Instructions: instructions, Scenario: scenario,
	}
	workers, _ := startWorkers(t, 3, core.Options{Instructions: 11111, Parallelism: 2})
	_, c, coordStore := newCoordinator(t, workers, 2, core.Options{Instructions: 77777, Parallelism: 2})
	ctx := ctxT(t)
	before := scrape(t, c)

	st, err := c.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatalf("sharded %q campaign: %v", scenario, err)
	}
	if st.Status != server.StatusDone {
		t.Fatalf("status %s: %s", st.Status, st.Error)
	}

	// Single-node baseline with the same scenario and window.
	pairs, err := server.ResolveSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	baseDir := t.TempDir()
	baseSt, err := store.Open(baseDir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Characterize(pairs, core.Options{
		Instructions: instructions, Scenario: sc,
		Cache: sched.NewCache(), Store: baseSt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Results) != len(want) {
		t.Fatalf("sharded campaign returned %d results, single-node %d", len(st.Results), len(want))
	}
	if !bytes.Equal(asJSON(t, st.Results), asJSON(t, want)) {
		t.Errorf("sharded %q results differ from the single-node run", scenario)
	}
	if st.Progress.Remote != len(want) {
		t.Errorf("progress = %+v, want all %d pairs done remotely", st.Progress, len(want))
	}

	wantKeys := storeKeys(t, baseDir)
	gotKeys := storeKeys(t, coordStore)
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("coordinator store holds %d records, single-node %d", len(gotKeys), len(wantKeys))
	}
	for k := range wantKeys {
		if !gotKeys[k] {
			t.Errorf("store record %s missing from the coordinator store", k)
		}
	}

	assertRemoteTally(t, st.Progress, before, scrape(t, c), mode, len(want))

	// A resubmission never goes back to the fleet and stays identical.
	st2, err := c.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatalf("resubmission: %v", err)
	}
	if st2.Progress.CacheHits != len(want) || st2.Progress.Remote != 0 {
		t.Errorf("resubmission progress = %+v, want %d local cache hits and 0 remote", st2.Progress, len(want))
	}
	if !bytes.Equal(asJSON(t, st2.Results), asJSON(t, want)) {
		t.Errorf("locally re-served %q results differ from the single-node run", scenario)
	}
}

// TestFleetAnalyticBitIdentical: an analytic-tier campaign scattered
// over the fleet is bit-identical to a single-node analytic run.
func TestFleetAnalyticBitIdentical(t *testing.T) {
	fleetScenarioBitIdentical(t, 20000, "analytic", core.Scenario{Fidelity: machine.FidelityAnalytic}, "analytic")
}

// TestFleetParallelBitIdentical: a campaign carrying a j-pair knob
// scattered over the fleet is bit-identical to a single-node run at the
// same knob. The stream is long enough that the geometric split keeps
// both windows above the kernel's minimum window (not the short-stream
// fallback), so a match also proves the stitched estimate is
// reproducible across process boundaries.
func TestFleetParallelBitIdentical(t *testing.T) {
	fleetScenarioBitIdentical(t, 120000, "j-pair=2", core.Scenario{IntraPairWorkers: 2}, "exact")
}

// TestFleetScenarioBitIdentical: the sampled tier at an explicit
// non-default knob, rate mode and a heterogeneous topology each survive
// the scatter through the scenario string the coordinator forwards.
// The sampled window spans several sampling periods, so the explicit
// knob really shapes the results.
func TestFleetScenarioBitIdentical(t *testing.T) {
	topo, err := machine.ParseTopology("1P1E-random")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, scenario string
		instructions   uint64
		sc             core.Scenario
		mode           string
	}{
		{"sampled", "sampling=131072/4096/4096", 600000,
			core.Scenario{Sampling: machine.Sampling{Period: 131072, DetailLen: 4096, WarmupLen: 4096}}, "sampled"},
		{"rate", "rate=2", 20000, core.Scenario{RateCopies: 2}, "rate"},
		{"topology", "topo=1P1E-random", 20000, core.Scenario{Topology: topo}, "rate"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fleetScenarioBitIdentical(t, tc.instructions, tc.scenario, tc.sc, tc.mode)
		})
	}
}

// TestFleetWorkerKilledMidCampaign: killing a worker while its chunks
// are in flight loses zero pairs — the dispatcher resubmits them to the
// survivors — and the final results (and a store-served resubmission)
// stay bit-identical to a single-node run.
func TestFleetWorkerKilledMidCampaign(t *testing.T) {
	const instructions = 20000
	spec := server.CampaignSpec{Suite: "cpu2017", Mini: "rate-int", Size: "test", Instructions: instructions}

	// Slow every worker sub-campaign slightly so the kill below lands
	// while chunks are still in flight (the stub runs the real engine,
	// so results stay bit-identical).
	stubCampaigns(t, func(pairs []profile.Pair, opt core.Options) ([]core.Characteristics, error) {
		time.Sleep(30 * time.Millisecond)
		return core.Characterize(pairs, opt)
	})

	workers, kill := startWorkers(t, 3, core.Options{Parallelism: 2})
	_, c, _ := newCoordinator(t, workers, 1, core.Options{Parallelism: 2})
	ctx := ctxT(t)

	submitted, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Watch the SSE stream; the first remote completion is the signal
	// that the scatter is under way, and the moment worker 0 dies.
	killed := false
	err = c.Events(ctx, submitted.ID, func(ev client.Event) error {
		if ev.Name != "progress" || killed {
			return nil
		}
		p, perr := ev.Progress()
		if perr != nil {
			return perr
		}
		if p.Remote > 0 && p.Done < p.Total {
			kill[0]()
			killed = true
		}
		return nil
	})
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	if !killed {
		t.Skip("campaign finished before a mid-flight kill was possible; nothing to assert")
	}

	final, err := c.Campaign(ctx, submitted.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != server.StatusDone {
		t.Fatalf("campaign ended %s after worker death: %s", final.Status, final.Error)
	}
	want, _ := baseline(t, spec, instructions)
	if final.Progress.Done != len(want) || len(final.Results) != len(want) {
		t.Fatalf("%d/%d pairs done, %d results: pairs were lost",
			final.Progress.Done, len(want), len(final.Results))
	}
	if !bytes.Equal(asJSON(t, final.Results), asJSON(t, want)) {
		t.Error("results after worker death differ from the single-node run")
	}

	// Everything the campaign gathered must now be store-served locally,
	// still bit-identical — the killed worker took no records with it.
	st2, err := c.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Progress.CacheHits != len(want) {
		t.Errorf("resubmission progress = %+v, want %d local hits", st2.Progress, len(want))
	}
	if !bytes.Equal(asJSON(t, st2.Results), asJSON(t, want)) {
		t.Error("store-served results after worker death differ from the single-node run")
	}
}

// TestFleetUnhealthyWorkerSkipped: a worker that is down before the
// scatter begins is excluded by the health probe; the campaign
// completes on the survivors and the fleet gauges report the death.
func TestFleetUnhealthyWorkerSkipped(t *testing.T) {
	const instructions = 20000
	spec := server.CampaignSpec{Suite: "cpu2017", Mini: "rate-fp", Size: "test", Instructions: instructions}

	workers, kill := startWorkers(t, 3, core.Options{Parallelism: 2})
	kill[1]() // dead before the campaign is ever submitted
	_, c, _ := newCoordinator(t, workers, 2, core.Options{Parallelism: 2})
	ctx := ctxT(t)

	st, err := c.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatalf("campaign with a pre-dead worker: %v", err)
	}
	if st.Status != server.StatusDone {
		t.Fatalf("status %s: %s", st.Status, st.Error)
	}
	want, _ := baseline(t, spec, instructions)
	if st.Progress.Done != len(want) || !bytes.Equal(asJSON(t, st.Results), asJSON(t, want)) {
		t.Error("campaign over the degraded fleet lost pairs or changed bits")
	}

	// The coordinator is the last server built, so the fleet gauges are
	// its own.
	text := scrape(t, c)
	for series, want := range map[string]float64{
		`speckit_fleet_workers{state="healthy"}`:   2,
		`speckit_fleet_workers{state="unhealthy"}`: 1,
	} {
		if got := promSeries(text, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}

// TestFleetNoHealthyWorkers: with the whole fleet down, the campaign
// fails with a clear error instead of hanging or silently running
// locally.
func TestFleetNoHealthyWorkers(t *testing.T) {
	workers, kill := startWorkers(t, 2, core.Options{})
	kill[0]()
	kill[1]()
	_, c, _ := newCoordinator(t, workers, 2, core.Options{})

	st, err := c.SubmitWait(ctxT(t), server.CampaignSpec{Suite: "cpu2017", Mini: "rate-int", Size: "test", Instructions: 20000})
	if err != nil {
		t.Fatalf("SubmitWait transport error: %v", err)
	}
	if st.Status != server.StatusFailed || !strings.Contains(st.Error, "no healthy fleet worker") {
		t.Fatalf("status %s (%q), want failed with a no-healthy-workers error", st.Status, st.Error)
	}
}
