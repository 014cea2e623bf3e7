// Sweep e2e: /v1/sweeps driven exclusively through the typed client —
// submit/wait, SSE, manifest, cancellation, backpressure, differential
// repeat behaviour, typed 404s, and fleet-sharded bit-identity.
package server_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/sweep"
)

// sweepSpecT returns a small 2x2-grid sweep over two rate-int pairs.
func sweepSpecT(t *testing.T) server.SweepSpec {
	t.Helper()
	pairs, err := server.ResolveSpec(server.CampaignSpec{Suite: "cpu2017", Mini: "rate-int", Size: "test"})
	if err != nil {
		t.Fatal(err)
	}
	return server.SweepSpec{
		Suite: "cpu2017", Mini: "rate-int", Size: "test",
		Pairs:        []string{pairs[0].Name(), pairs[1].Name()},
		Instructions: 20000,
		Axes: []sweep.Axis{
			{Param: "l3.size", Values: []int64{1 << 20, 2 << 20}},
			{Param: "l2.size", Values: []int64{128 << 10, 256 << 10}},
		},
	}
}

// TestSweepEndToEnd: submit → SSE progress across both phases → result
// with knee reports and manifest; an identical second sweep is served
// without simulating a single cell and reproduces the knee report
// byte-identically; the server accounts cells by phase and source.
func TestSweepEndToEnd(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := core.Options{Instructions: 20000, Parallelism: 2, Cache: sched.NewCache(), Store: st}
	s, c, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 8, Characterize: base})
	ctx := ctxT(t)
	spec := sweepSpecT(t)

	status, err := c.SubmitSweep(ctx, spec)
	if err != nil {
		t.Fatalf("submit sweep: %v", err)
	}
	if status.ID == "" || !strings.HasPrefix(status.ID, "s") {
		t.Fatalf("sweep id = %q", status.ID)
	}
	if status.Pairs != 2 || status.Points != 4 {
		t.Fatalf("accepted status = %+v, want 2 pairs x 4 points", status)
	}

	// Follow SSE until done; both phases must stream progress.
	phases := map[string]int{}
	var doneStatus server.SweepStatus
	err = c.SweepEvents(ctx, status.ID, func(ev client.Event) error {
		switch ev.Name {
		case "progress":
			p, perr := ev.SweepProgress()
			if perr != nil {
				return perr
			}
			phases[p.Phase]++
		case "done":
			st, serr := ev.SweepStatus()
			if serr != nil {
				return serr
			}
			doneStatus = st
		}
		return nil
	})
	if err != nil {
		t.Fatalf("sweep events: %v", err)
	}
	if phases["screen"] == 0 || phases["escalate"] == 0 {
		t.Errorf("SSE phases = %v, want progress from both", phases)
	}
	if doneStatus.Status != server.StatusDone {
		t.Fatalf("done event status = %+v", doneStatus)
	}

	st1, err := c.Sweep(ctx, status.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	res1 := st1.Result
	if res1 == nil {
		t.Fatal("done sweep has no result")
	}
	if res1.Screen.Simulated != 8 || res1.Screen.Store != 0 {
		t.Errorf("cold screen cells = %+v, want 8 simulated", res1.Screen)
	}
	if res1.EscalateTier != "sampled" || res1.Escalate.Total() == 0 {
		t.Errorf("escalation did not run: tier=%q cells=%+v", res1.EscalateTier, res1.Escalate)
	}
	if len(res1.Knees) != 2 {
		t.Fatalf("knee reports = %d, want 2 (default metrics)", len(res1.Knees))
	}
	for _, k := range res1.Knees {
		if k.Knee == "" || len(k.Points) == 0 {
			t.Errorf("metric %s: empty knee report %+v", k.Metric, k)
		}
	}

	// Manifest is retrievable under the advertised digest.
	if st1.ManifestDigest == "" {
		t.Error("no manifest digest on a done sweep")
	}
	manifest, digest, err := c.SweepManifest(ctx, status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if digest != st1.ManifestDigest || len(manifest) == 0 {
		t.Errorf("manifest digest %q (status %q), %d bytes", digest, st1.ManifestDigest, len(manifest))
	}

	// The repeated sweep simulates nothing and reproduces the knee
	// report byte for byte.
	st2, err := c.SubmitSweepWait(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	res2 := st2.Result
	if res2 == nil || st2.Status != server.StatusDone {
		t.Fatalf("repeat sweep = %+v", st2)
	}
	if res2.Screen.Simulated != 0 || res2.Escalate.Simulated != 0 {
		t.Errorf("repeat simulated %d+%d cells, want 0", res2.Screen.Simulated, res2.Escalate.Simulated)
	}
	if got := res2.Screen.Memory + res2.Screen.Store; got != 8 {
		t.Errorf("repeat screen cache cells = %d, want 8", got)
	}
	if !bytes.Equal(asJSON(t, res1.Knees), asJSON(t, res2.Knees)) {
		t.Errorf("repeated sweep knee report differs:\n%s\n%s", asJSON(t, res1.Knees), asJSON(t, res2.Knees))
	}
	if !bytes.Equal(asJSON(t, res1.Points), asJSON(t, res2.Points)) {
		t.Error("repeated sweep grid differs")
	}

	// Cell accounting: expvar "sweeps" block sums both runs.
	snap := s.MetricsSnapshot()
	cells := snap["sweeps"].(map[string]any)["cells"].(map[string]uint64)
	if cells["screen_simulated"] != 8 {
		t.Errorf("screen_simulated = %d, want 8", cells["screen_simulated"])
	}
	if cells["screen_memory"]+cells["screen_store"] != 8 {
		t.Errorf("screen cache cells = %d, want 8", cells["screen_memory"]+cells["screen_store"])
	}
	if cells["escalate_simulated"] == 0 {
		t.Error("escalate_simulated = 0, want > 0")
	}
	// And the listing shows both sweeps done.
	list, err := c.Sweeps(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Status != server.StatusDone || list[1].Status != server.StatusDone {
		t.Errorf("sweep list = %+v", list)
	}
	// Prometheus twin of the cell counters is exposed.
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, `speckit_sweep_cells_total{phase="screen",source="simulated"}`) {
		t.Error("speckit_sweep_cells_total missing from /metrics")
	}
}

// TestSweepSpecValidation: structurally bad sweeps are rejected at
// submit time, before anything is queued, with a typed 400 naming the
// JSON field at fault.
func TestSweepSpecValidation(t *testing.T) {
	_, c, ts := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	ctx := ctxT(t)

	reject := func(name, want string, mutate func(*server.SweepSpec)) {
		t.Helper()
		spec := sweepSpecT(t)
		mutate(&spec)
		_, err := c.SubmitSweep(ctx, spec)
		var ae *client.APIError
		if err == nil || !errors.As(err, &ae) || ae.Code != http.StatusBadRequest {
			t.Errorf("%s: err = %v, want 400", name, err)
		}
		if field, _, _ := client.FieldError(err); field != want {
			t.Errorf("%s: field = %q, want %q (err %v)", name, field, want, err)
		}
	}
	reject("bad-axis", "axes", func(s *server.SweepSpec) { s.Axes[0].Param = "l9.size" })
	reject("dup-axis", "axes", func(s *server.SweepSpec) { s.Axes[1] = s.Axes[0] })
	reject("bad-metric", "metrics", func(s *server.SweepSpec) { s.Metrics = []string{"cpi"} })
	reject("bad-screen", "screen", func(s *server.SweepSpec) { s.Screen = "quantum" })
	reject("bad-escalate", "escalate", func(s *server.SweepSpec) { s.Escalate = "quantum" })
	reject("bad-pair", "pairs", func(s *server.SweepSpec) { s.Pairs = []string{"no-such-pair"} })
	reject("bad-point", "axes", func(s *server.SweepSpec) {
		s.Axes[0] = sweep.Axis{Param: "line", Values: []int64{48}}
	})

	// An invalid machine override fails JSON-decode validation, and a
	// value of the wrong JSON type fails decoding (raw HTTP: the typed
	// client cannot construct either body).
	for _, tc := range []struct{ name, body, field string }{
		{"invalid-machine", `{"suite":"cpu2017","size":"test","axes":[{"param":"l3.size","values":[1048576]}],` +
			`"machine":{"name":"x","l1i":{},"l1d":{},"l2":{},"l3":{},"pipeline":{},"clock_hz":0}}`, "machine"},
		{"metrics-type", `{"suite":"cpu2017","size":"test","axes":[{"param":"l3.size","values":[1048576]}],` +
			`"metrics":"ipc"}`, "metrics"},
	} {
		if code, field := postRaw(t, ts.URL+"/v1/sweeps", tc.body); code != http.StatusBadRequest || field != tc.field {
			t.Errorf("%s: status %d field %q, want 400 field %q", tc.name, code, field, tc.field)
		}
	}
}

// TestUnknownIDsAreTypedNotFound is the satellite-6 regression test:
// every ID-taking client path — campaign and sweep alike — surfaces an
// unknown ID as a typed *APIError 404 (client.IsNotFound), never as a
// raw decode error.
func TestUnknownIDsAreTypedNotFound(t *testing.T) {
	_, c, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	ctx := ctxT(t)

	calls := map[string]func() error{
		"campaign": func() error { _, err := c.Campaign(ctx, "c999999", true); return err },
		"wait":     func() error { _, err := c.Wait(ctx, "c999999"); return err },
		"cancel":   func() error { _, err := c.Cancel(ctx, "c999999"); return err },
		"events": func() error {
			return c.Events(ctx, "c999999", func(client.Event) error { return nil })
		},
		"manifest": func() error { _, _, err := c.Manifest(ctx, "c999999"); return err },
		"sweep":    func() error { _, err := c.Sweep(ctx, "s999999", true); return err },
		"wait-sweep": func() error {
			_, err := c.WaitSweep(ctx, "s999999")
			return err
		},
		"cancel-sweep": func() error { _, err := c.CancelSweep(ctx, "s999999"); return err },
		"sweep-events": func() error {
			return c.SweepEvents(ctx, "s999999", func(client.Event) error { return nil })
		},
		"sweep-manifest": func() error { _, _, err := c.SweepManifest(ctx, "s999999"); return err },
	}
	for name, call := range calls {
		err := call()
		if err == nil || !client.IsNotFound(err) {
			t.Errorf("%s: err = %v, want typed 404 (IsNotFound)", name, err)
		}
	}
}

// TestSweepQueueAndCancel: sweeps share the campaigns' bounded queue
// (429 with Retry-After when full) and cancel cleanly while queued.
func TestSweepQueueAndCancel(t *testing.T) {
	release := make(chan struct{})
	stubCampaigns(t, func(pairs []profile.Pair, opt core.Options) ([]core.Characteristics, error) {
		select {
		case <-release:
		case <-opt.Context.Done():
			return nil, opt.Context.Err()
		}
		return make([]core.Characteristics, len(pairs)), nil
	})
	_, c, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 1})
	ctx := ctxT(t)

	// Occupy the single worker with a stubbed campaign, then fill the
	// one queue slot with a sweep.
	if _, err := c.Submit(ctx, server.CampaignSpec{Suite: "cpu2017", Mini: "rate-int", Size: "test"}); err != nil {
		t.Fatal(err)
	}
	spec := sweepSpecT(t)
	var queued server.SweepStatus
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := c.SubmitSweep(ctx, spec)
		if err == nil {
			queued = st
			break
		}
		if !client.IsQueueFull(err) || time.Now().After(deadline) {
			t.Fatalf("submit sweep: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if queued.Status != server.StatusQueued {
		t.Fatalf("sweep status = %q, want queued", queued.Status)
	}

	// Queue slot now taken: the next sweep bounces with 429 + hint.
	_, err := c.SubmitSweep(ctx, spec)
	var ae *client.APIError
	if !client.IsQueueFull(err) || !errors.As(err, &ae) || ae.RetryAfter <= 0 {
		t.Fatalf("overflow submit: %v", err)
	}

	// Cancel the queued sweep; it finishes cancelled without running.
	if _, err := c.CancelSweep(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	st, err := c.WaitSweep(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != server.StatusCancelled || st.Result != nil {
		t.Errorf("cancelled sweep = %+v", st)
	}
	close(release)
}

// TestFleetShardedSweepBitIdentical is the acceptance gate for
// coordinator-aware sweeps: a sweep scattered over workers (whose base
// flags deliberately disagree with the sweep's) must produce exactly
// the result — and exactly the store key set — a single-node sweep
// does, with every cold cell computed remotely.
func TestFleetShardedSweepBitIdentical(t *testing.T) {
	spec := sweepSpecT(t)
	ctx := ctxT(t)

	// Single-node reference.
	soloDir := t.TempDir()
	soloStore, err := store.Open(soloDir)
	if err != nil {
		t.Fatal(err)
	}
	_, solo, _ := newTestServer(t, server.Config{
		Workers: 1, QueueDepth: 8,
		Characterize: core.Options{Parallelism: 2, Cache: sched.NewCache(), Store: soloStore},
	})
	want, err := solo.SubmitSweepWait(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if want.Status != server.StatusDone {
		t.Fatalf("single-node sweep = %+v", want)
	}

	// Sharded run: worker base options differ (Instructions 11111) to
	// prove the chunk specs forward the merged window and machine.
	workers, _ := startWorkers(t, 3, core.Options{Instructions: 11111, Parallelism: 2})
	_, coordClient, coordDir := newCoordinator(t, workers, 2, core.Options{Parallelism: 2})
	got, err := coordClient.SubmitSweepWait(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != server.StatusDone {
		t.Fatalf("sharded sweep = %+v", got)
	}

	if !bytes.Equal(asJSON(t, want.Result.Points), asJSON(t, got.Result.Points)) {
		t.Error("sharded sweep grid differs from single-node")
	}
	if !bytes.Equal(asJSON(t, want.Result.Knees), asJSON(t, got.Result.Knees)) {
		t.Errorf("sharded sweep knee report differs from single-node:\n%s\n%s",
			asJSON(t, want.Result.Knees), asJSON(t, got.Result.Knees))
	}

	// Cold cells were computed remotely, not locally simulated.
	if got.Result.Screen.Simulated != 0 || got.Result.Screen.Remote != 8 {
		t.Errorf("sharded screen cells = %+v, want 8 remote", got.Result.Screen)
	}
	if got.Result.Escalate.Simulated != 0 || got.Result.Escalate.Remote == 0 {
		t.Errorf("sharded escalate cells = %+v, want remote only", got.Result.Escalate)
	}

	// The coordinator's store holds exactly the single-node key set.
	wantKeys, gotKeys := storeKeys(t, soloDir), storeKeys(t, coordDir)
	if len(wantKeys) == 0 {
		t.Fatal("single-node sweep wrote no store records")
	}
	if len(wantKeys) != len(gotKeys) {
		t.Fatalf("store keys: single-node %d, sharded %d", len(wantKeys), len(gotKeys))
	}
	for k := range wantKeys {
		if !gotKeys[k] {
			t.Errorf("sharded store is missing record %s", k)
		}
	}

	var progress sweep.Progress
	_ = json.Unmarshal(asJSON(t, got.Progress), &progress) // status progress decodes as engine progress
	if progress.CellsDone != got.Result.Cells {
		t.Errorf("final progress %+v disagrees with result cells %d", progress, got.Result.Cells)
	}
}
