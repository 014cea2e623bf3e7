// Fleet e2e: a coordinator in front of in-process worker specserveds
// (httptest) must serve sharded campaigns bit-identical to a single-node
// run — same results, same store records — and must survive a worker
// dying mid-campaign with zero lost pairs.
package server_test

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"net/http/httptest"
	"path/filepath"
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
	keys := map[string]bool{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".json") {
			keys[strings.TrimSuffix(d.Name(), ".json")] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
	coord, c, coordStore := newCoordinator(t, workers, 2, core.Options{Instructions: 77777, Parallelism: 2})
	ctx := ctxT(t)

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

	// The coordinator's expvar accounting must attribute the pairs to
	// the remote source, not to local simulation.
	pairsBySource := coord.MetricsSnapshot()["pairs"].(map[string]uint64)
	if got := pairsBySource["from_remote"]; got != uint64(len(want)) {
		t.Errorf("from_remote = %d, want %d", got, len(want))
	}
	if got := pairsBySource["simulated"]; got != 0 {
		t.Errorf("simulated = %d, want 0 on a coordinator", got)
	}

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

// TestFleetAnalyticBitIdentical: an analytic-tier campaign scattered
// over the fleet is bit-identical to a single-node analytic run. The
// workers' base options carry neither the fidelity nor the analytic
// window, so a match proves the coordinator forwards the tier in every
// chunk spec rather than relying on fleet-wide flag agreement.
func TestFleetAnalyticBitIdentical(t *testing.T) {
	const instructions = 20000
	spec := server.CampaignSpec{
		Suite: "cpu2017", Mini: "rate-int", Size: "test",
		Instructions: instructions, Fidelity: "analytic",
	}

	workers, _ := startWorkers(t, 3, core.Options{Instructions: 11111, Parallelism: 2})
	coord, c, coordStore := newCoordinator(t, workers, 2, core.Options{Instructions: 77777, Parallelism: 2})
	ctx := ctxT(t)

	st, err := c.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatalf("sharded analytic campaign: %v", err)
	}
	if st.Status != server.StatusDone {
		t.Fatalf("status %s: %s", st.Status, st.Error)
	}

	// Single-node baseline with the same tier and window.
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
		Instructions: instructions, Scenario: core.Scenario{Fidelity: machine.FidelityAnalytic},
		Cache: sched.NewCache(), Store: baseSt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Results) != len(want) {
		t.Fatalf("sharded campaign returned %d results, single-node %d", len(st.Results), len(want))
	}
	if !bytes.Equal(asJSON(t, st.Results), asJSON(t, want)) {
		t.Error("sharded analytic results differ from the single-node run")
	}
	if st.Progress.Remote != len(want) {
		t.Errorf("progress = %+v, want all %d pairs done remotely", st.Progress, len(want))
	}

	// Store records carry the analytic key suffix on both sides, so key
	// sets matching proves the tier survived the scatter.
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

	pairsBySource := coord.MetricsSnapshot()["pairs"].(map[string]uint64)
	if got := pairsBySource["analytic_from_remote"]; got != uint64(len(want)) {
		t.Errorf("analytic_from_remote = %d, want %d", got, len(want))
	}
	if got := pairsBySource["analytic_computed"]; got != 0 {
		t.Errorf("analytic_computed = %d, want 0 on a coordinator", got)
	}

	// A resubmission never goes back to the fleet and stays identical.
	st2, err := c.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatalf("resubmission: %v", err)
	}
	if st2.Progress.CacheHits != len(want) || st2.Progress.Remote != 0 {
		t.Errorf("resubmission progress = %+v, want %d local cache hits and 0 remote", st2.Progress, len(want))
	}
	if !bytes.Equal(asJSON(t, st2.Results), asJSON(t, want)) {
		t.Error("locally re-served analytic results differ from the single-node run")
	}
}

// TestFleetParallelBitIdentical: a campaign carrying workers_per_pair
// scattered over the fleet is bit-identical to a single-node run at the
// same knob. The stream is long enough that the knob really windows
// (not the short-stream fallback), so a match proves both that the
// coordinator forwards the knob in every chunk spec — the workers' base
// options don't carry it, and an unforwarded knob would produce
// sequential results under different store keys — and that the stitched
// estimate is reproducible across process boundaries.
func TestFleetParallelBitIdentical(t *testing.T) {
	// Long enough that the geometric split keeps both windows above the
	// kernel's minimum window — genuinely parallel, not the fallback.
	const instructions = 120000
	spec := server.CampaignSpec{
		Suite: "cpu2017", Mini: "rate-int", Size: "test",
		Instructions: instructions, WorkersPerPair: 2,
	}

	workers, _ := startWorkers(t, 3, core.Options{Instructions: 11111, Parallelism: 2})
	_, c, coordStore := newCoordinator(t, workers, 2, core.Options{Instructions: 77777, Parallelism: 2})
	ctx := ctxT(t)

	st, err := c.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatalf("sharded parallel campaign: %v", err)
	}
	if st.Status != server.StatusDone {
		t.Fatalf("status %s: %s", st.Status, st.Error)
	}

	// Single-node baseline with the same knob and window.
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
		Instructions: instructions, Scenario: core.Scenario{IntraPairWorkers: 2},
		Cache: sched.NewCache(), Store: baseSt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(asJSON(t, st.Results), asJSON(t, want)) {
		t.Error("sharded parallel results differ from the single-node run")
	}

	// Store records carry the pairwindows key suffix on both sides, so
	// key sets matching proves the knob survived the scatter.
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

	// A resubmission is served from the coordinator's own tiers.
	st2, err := c.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatalf("resubmission: %v", err)
	}
	if st2.Progress.CacheHits != len(want) || st2.Progress.Remote != 0 {
		t.Errorf("resubmission progress = %+v, want %d local cache hits and 0 remote", st2.Progress, len(want))
	}
	if !bytes.Equal(asJSON(t, st2.Results), asJSON(t, want)) {
		t.Error("locally re-served parallel results differ from the single-node run")
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
	coord, c, _ := newCoordinator(t, workers, 2, core.Options{Parallelism: 2})
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

	fleetInfo := coord.MetricsSnapshot()["fleet"].(map[string]any)
	healthy := 0
	for _, w := range fleetInfo["workers"].([]map[string]any) {
		if w["healthy"].(bool) {
			healthy++
		}
	}
	if healthy != 2 {
		t.Errorf("fleet snapshot reports %d healthy workers, want 2", healthy)
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
