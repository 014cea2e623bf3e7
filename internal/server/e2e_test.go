// The e2e suite lives in an external test package and drives the
// server exclusively through internal/client, so every endpoint and
// error path is exercised via the typed client surface (raw HTTP is
// used only where the client cannot express the request, e.g.
// malformed JSON bodies).
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/store"
)

// stubCampaigns swaps the worker's campaign runner for the test.
func stubCampaigns(t *testing.T, fn func([]profile.Pair, core.Options) ([]core.Characteristics, error)) {
	t.Helper()
	t.Cleanup(server.SetRunCampaign(fn))
}

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *client.Client, *httptest.Server) {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)
	return s, client.New(ts.URL), ts
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// promSeries extracts one sample value from a Prometheus text payload;
// series is the full "name{labels}" prefix of the sample line.
func promSeries(text, series string) float64 {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
			return v
		}
	}
	return 0
}

// postRaw posts body to url and returns the status code and the error
// envelope's "field" member.
func postRaw(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope struct {
		Field string `json:"field"`
	}
	json.NewDecoder(resp.Body).Decode(&envelope)
	return resp.StatusCode, envelope.Field
}

// TestEndToEnd: submit → SSE progress → fetched result equals a direct
// core.Characterize run, a resubmission is served entirely from the
// cache, the run manifest is retrievable under the advertised digest,
// and /metrics accounts the campaign's pairs by tier.
func TestEndToEnd(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := core.Options{Instructions: 20000, Cache: sched.NewCache(), Store: st}
	s, c, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 8, Characterize: base})
	ctx := ctxT(t)

	metricsBefore, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}

	spec := server.CampaignSpec{Suite: "cpu2017", Mini: "rate-int", Size: "train", Instructions: 20000}
	status, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if status.ID == "" || status.Pairs == 0 {
		t.Fatalf("submit status = %+v", status)
	}

	// Follow the SSE stream until the campaign completes; the server
	// closes the stream after the terminal event.
	var progressEvents, doneEvents int
	var lastProgress server.ProgressStatus
	err = c.Events(ctx, status.ID, func(ev client.Event) error {
		switch ev.Name {
		case "progress":
			progressEvents++
			p, perr := ev.Progress()
			if perr != nil {
				return perr
			}
			lastProgress = p
		case "done":
			doneEvents++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	if doneEvents != 1 {
		t.Fatalf("saw %d done events (%d progress)", doneEvents, progressEvents)
	}
	if progressEvents == 0 || lastProgress.Done != status.Pairs {
		t.Errorf("progress events = %d, last = %+v, want %d pairs", progressEvents, lastProgress, status.Pairs)
	}

	final, err := c.Wait(ctx, status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != server.StatusDone || len(final.Results) != status.Pairs {
		t.Fatalf("final = %s with %d results, want done with %d", final.Status, len(final.Results), status.Pairs)
	}
	if final.ManifestDigest == "" {
		t.Error("done campaign reports no manifest digest")
	}

	// The manifest endpoint serves the recorded span tree whose digest
	// the status advertises.
	manifest, headerDigest, err := c.Manifest(ctx, status.ID)
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if got := obs.ManifestDigest(manifest); got != final.ManifestDigest || got != headerDigest {
		t.Errorf("manifest digest = %s, status %s, header %s", got, final.ManifestDigest, headerDigest)
	}
	if _, spans, merr := obs.ReadManifest(bytes.NewReader(manifest)); merr != nil || len(spans) < status.Pairs+1 {
		t.Errorf("manifest = %d spans, err %v; want >= campaign + %d pairs", len(spans), merr, status.Pairs)
	}

	// Parity: the served results are bit-identical to a direct library
	// run with the same options (compare serialized forms: the codec
	// encoding is deterministic).
	pairs, err := server.ResolveSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Characterize(pairs, core.Options{Instructions: 20000})
	if err != nil {
		t.Fatal(err)
	}
	directJSON, _ := json.Marshal(direct)
	servedJSON, _ := json.Marshal(final.Results)
	if !bytes.Equal(directJSON, servedJSON) {
		t.Error("served results differ from direct library results")
	}

	// Resubmission: every pair must come from the cache, none simulated.
	before := s.MetricsSnapshot()["pairs"].(map[string]uint64)["simulated"]
	again, err := c.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if again.Status != server.StatusDone {
		t.Fatalf("resubmit status = %s (%s)", again.Status, again.Error)
	}
	if again.Progress.CacheHits != status.Pairs {
		t.Errorf("resubmit cache hits = %d, want all %d", again.Progress.CacheHits, status.Pairs)
	}
	if got := s.MetricsSnapshot()["pairs"].(map[string]uint64)["simulated"]; got != before {
		t.Errorf("resubmit simulated %d pairs, want 0", got-before)
	}
	resubJSON, _ := json.Marshal(again.Results)
	if !bytes.Equal(directJSON, resubJSON) {
		t.Error("resubmitted results are not bit-identical")
	}

	// The store received the write-through records.
	if st.Stats().Writes == 0 {
		t.Error("no records written through to the persistent store")
	}

	// /metrics accounts this test's pairs in the exact-mode tier split
	// (the registry is process-global, so compare against the scrape
	// taken before the first submission).
	metricsAfter, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	simSeries := `speckit_served_pairs_total{mode="exact",source="simulated"}`
	memSeries := `speckit_served_pairs_total{mode="exact",source="memory"}`
	if d := promSeries(metricsAfter, simSeries) - promSeries(metricsBefore, simSeries); d != float64(status.Pairs) {
		t.Errorf("%s grew by %v, want %d", simSeries, d, status.Pairs)
	}
	if d := promSeries(metricsAfter, memSeries) - promSeries(metricsBefore, memSeries); d != float64(status.Pairs) {
		t.Errorf("%s grew by %v, want %d", memSeries, d, status.Pairs)
	}
	for _, series := range []string{
		"speckit_stage_seconds_bucket",
		"speckit_store_ops_total",
		"speckit_http_requests_total",
		"speckit_http_request_seconds_bucket",
		"speckit_server_queue_depth",
		"speckit_server_jobs",
	} {
		if !strings.Contains(metricsAfter, series) {
			t.Errorf("/metrics is missing the %s series", series)
		}
	}
}

// TestPairWindowMetrics: a campaign with workers_per_pair counts its
// concurrently simulated sub-windows under the parallel source in both
// /metrics (speckit_pair_windows_total and the per-window latency
// histogram) and the expvar snapshot's pair_windows block.
func TestPairWindowMetrics(t *testing.T) {
	s, c, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	ctx := ctxT(t)

	winBefore := s.MetricsSnapshot()["pair_windows"].(map[string]any)["parallel"].(map[string]any)
	metricsBefore, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Long enough that the geometric split keeps both windows above the
	// kernel's minimum window: every pair really simulates 2 windows.
	spec := server.CampaignSpec{
		Suite: "cpu2017", Mini: "rate-int", Size: "test",
		Instructions: 120000, WorkersPerPair: 2,
	}
	st, err := c.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != server.StatusDone {
		t.Fatalf("status %s: %s", st.Status, st.Error)
	}
	wantWindows := uint64(2 * len(st.Results))

	winAfter := s.MetricsSnapshot()["pair_windows"].(map[string]any)["parallel"].(map[string]any)
	if d := winAfter["windows"].(uint64) - winBefore["windows"].(uint64); d != wantWindows {
		t.Errorf("expvar parallel windows grew by %d, want %d", d, wantWindows)
	}
	if winAfter["seconds_sum"].(float64) <= winBefore["seconds_sum"].(float64) {
		t.Error("expvar parallel window seconds_sum did not grow")
	}

	metricsAfter, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	series := `speckit_pair_windows_total{source="parallel"}`
	if d := promSeries(metricsAfter, series) - promSeries(metricsBefore, series); d != float64(wantWindows) {
		t.Errorf("%s grew by %v, want %d", series, d, wantWindows)
	}
	countSeries := `speckit_pair_window_seconds_count{source="parallel"}`
	if d := promSeries(metricsAfter, countSeries) - promSeries(metricsBefore, countSeries); d != float64(wantWindows) {
		t.Errorf("%s grew by %v, want %d", countSeries, d, wantWindows)
	}
	if !strings.Contains(metricsAfter, `speckit_pair_window_seconds_bucket{source="parallel"`) {
		t.Error("/metrics is missing the parallel pair-window latency histogram")
	}
}

// TestQueueFull429: with one worker wedged and a single queue slot
// filled, the next submission is rejected with 429 + Retry-After.
func TestQueueFull429(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	stubCampaigns(t, func(pairs []profile.Pair, opt core.Options) ([]core.Characteristics, error) {
		started <- struct{}{}
		select {
		case <-release:
			return make([]core.Characteristics, len(pairs)), nil
		case <-opt.Context.Done():
			return nil, opt.Context.Err()
		}
	})
	defer close(release)

	_, c, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 1})
	ctx := ctxT(t)
	spec := server.CampaignSpec{Suite: "cpu2017", Mini: "rate-int", Size: "train"}

	if _, err := c.Submit(ctx, spec); err != nil { // taken by the worker
		t.Fatalf("first submit: %v", err)
	}
	<-started
	if _, err := c.Submit(ctx, spec); err != nil { // fills the single queue slot
		t.Fatalf("second submit: %v", err)
	}
	_, err := c.Submit(ctx, spec) // over capacity
	if !client.IsQueueFull(err) {
		t.Fatalf("over-capacity submit err = %v, want queue-full", err)
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.RetryAfter <= 0 {
		t.Errorf("429 without a Retry-After hint: %v", err)
	}
}

// TestDeleteCancelsInFlight: Cancel aborts a running campaign through
// the scheduler's context and the job reports cancelled.
func TestDeleteCancelsInFlight(t *testing.T) {
	started := make(chan struct{}, 1)
	stubCampaigns(t, func(pairs []profile.Pair, opt core.Options) ([]core.Characteristics, error) {
		started <- struct{}{}
		<-opt.Context.Done() // a real campaign aborts via this context
		return nil, opt.Context.Err()
	})

	_, c, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	ctx := ctxT(t)
	st, err := c.Submit(ctx, server.CampaignSpec{Suite: "cpu2017", Mini: "rate-int", Size: "train"})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != server.StatusCancelled {
		t.Fatalf("status after cancel = %s, want cancelled", final.Status)
	}
	if final.Error == "" {
		t.Error("cancelled campaign carries no reason")
	}
}

// TestDeleteQueuedCampaign: cancelling a job that never started is
// immediate and the worker skips it.
func TestDeleteQueuedCampaign(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	stubCampaigns(t, func(pairs []profile.Pair, opt core.Options) ([]core.Characteristics, error) {
		started <- struct{}{}
		<-release
		return make([]core.Characteristics, len(pairs)), nil
	})

	_, c, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	ctx := ctxT(t)
	spec := server.CampaignSpec{Suite: "cpu2017", Mini: "rate-int", Size: "train"}
	if _, err := c.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}
	<-started // worker busy
	queued, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := c.Cancel(ctx, queued.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if st, err := c.Wait(ctx, queued.ID); err != nil || st.Status != server.StatusCancelled {
		t.Fatalf("queued campaign after cancel = %s, %v", st.Status, err)
	}
	close(release)
	// The worker must not "run" the cancelled job: only the first
	// campaign ever started.
	select {
	case <-started:
		t.Error("worker started a cancelled queued campaign")
	case <-time.After(100 * time.Millisecond):
	}
}

// TestDrain: draining completes the in-flight campaign, cancels the
// queued one, and flips admission + health to 503.
func TestDrain(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	stubCampaigns(t, func(pairs []profile.Pair, opt core.Options) ([]core.Characteristics, error) {
		started <- struct{}{}
		select {
		case <-release:
			return make([]core.Characteristics, len(pairs)), nil
		case <-opt.Context.Done():
			return nil, opt.Context.Err()
		}
	})

	s, c, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	ctx := ctxT(t)
	spec := server.CampaignSpec{Suite: "cpu2017", Mini: "rate-int", Size: "train"}
	inflight, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()

	// Drain blocks on the in-flight job; meanwhile admission is closed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok, err := c.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never flipped to 503 while draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, err = c.Submit(ctx, spec)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %v, want 503", err)
	}

	close(release) // let the in-flight campaign finish
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}
	if st, err := c.Campaign(ctx, inflight.ID, false); err != nil || st.Status != server.StatusDone {
		t.Errorf("in-flight campaign after drain = %s, %v, want done", st.Status, err)
	}
	if st, err := c.Campaign(ctx, queued.ID, false); err != nil || st.Status != server.StatusCancelled {
		t.Errorf("queued campaign after drain = %s, %v, want cancelled", st.Status, err)
	}
}

// TestDrainGraceCancelsStragglers: a campaign that outlives the grace
// period is cancelled, not waited on forever.
func TestDrainGraceCancelsStragglers(t *testing.T) {
	started := make(chan struct{}, 1)
	stubCampaigns(t, func(pairs []profile.Pair, opt core.Options) ([]core.Characteristics, error) {
		started <- struct{}{}
		<-opt.Context.Done() // never finishes on its own
		return nil, opt.Context.Err()
	})
	s, c, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4, DrainGrace: 50 * time.Millisecond})
	ctx := ctxT(t)
	st, err := c.Submit(ctx, server.CampaignSpec{Suite: "cpu2017", Mini: "rate-int", Size: "train"})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	done := make(chan struct{})
	go func() { s.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain with grace period hung")
	}
	if got, err := c.Campaign(ctx, st.ID, false); err != nil || got.Status != server.StatusCancelled {
		t.Errorf("straggler after grace = %s, %v, want cancelled", got.Status, err)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, c, ts := newTestServer(t, server.Config{Workers: 1, QueueDepth: 1})
	ctx := ctxT(t)
	// Malformed bodies cannot be expressed through the typed client; post
	// them raw. A rejection attributable to one JSON field names it in
	// the 400's "field" member.
	for _, tc := range []struct{ body, field string }{
		{`{"suite":"cpu2099","size":"ref"}`, "suite"},
		{`{"suite":"cpu2017","size":"gigantic"}`, "size"},
		{`{"suite":"cpu2017","mini":"rate-bf16","size":"ref"}`, "mini"},
		{`{"suite":`, ""},
		{`{"unknown_field":1}`, ""},
		{`{"suite":"cpu2017","size":"ref","workers_per_pair":-2}`, "workers_per_pair"},
		{`{"suite":"cpu2017","size":"test","instructions":"many"}`, "instructions"},
	} {
		code, field := postRaw(t, ts.URL+"/v1/campaigns", tc.body)
		if code != http.StatusBadRequest || field != tc.field {
			t.Errorf("submit %q = %d field %q, want 400 field %q", tc.body, code, field, tc.field)
		}
	}
	// The same rejection surfaces through the client as a typed APIError.
	_, err := c.Submit(ctx, server.CampaignSpec{Suite: "cpu2099", Size: "ref"})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != http.StatusBadRequest || ae.Message == "" {
		t.Errorf("bad-suite submit err = %v, want APIError 400 with message", err)
	}
	if _, err := c.Campaign(ctx, "cunknown", true); !client.IsNotFound(err) {
		t.Errorf("GET unknown campaign err = %v, want not-found", err)
	}
}

func TestListCampaigns(t *testing.T) {
	stubCampaigns(t, func(pairs []profile.Pair, opt core.Options) ([]core.Characteristics, error) {
		return make([]core.Characteristics, len(pairs)), nil
	})
	_, c, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 8})
	ctx := ctxT(t)
	spec := server.CampaignSpec{Suite: "cpu2017", Mini: "rate-int", Size: "train"}
	first, err := c.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	list, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != first.ID || list[1].ID != second.ID {
		t.Fatalf("list = %+v, want [%s %s] in order", list, first.ID, second.ID)
	}
	if len(list[0].Results) != 0 {
		t.Error("list includes result payloads")
	}
}

// TestWaitModeReturnsResults: SubmitWait blocks and returns the
// finished campaign — results and manifest digest — in one round trip.
func TestWaitModeReturnsResults(t *testing.T) {
	stubCampaigns(t, func(pairs []profile.Pair, opt core.Options) ([]core.Characteristics, error) {
		out := make([]core.Characteristics, len(pairs))
		for i := range out {
			out[i].Pair = pairs[i]
		}
		return out, nil
	})
	_, c, _ := newTestServer(t, server.Config{Workers: 2, QueueDepth: 8})
	ctx := ctxT(t)
	st, err := c.SubmitWait(ctx, server.CampaignSpec{Suite: "cpu2017", Mini: "rate-fp", Size: "test"})
	if err != nil {
		t.Fatalf("wait submit: %v", err)
	}
	if st.Status != server.StatusDone || len(st.Results) != st.Pairs {
		t.Fatalf("wait result = %s with %d/%d results", st.Status, len(st.Results), st.Pairs)
	}
	if st.ManifestDigest == "" {
		t.Error("wait result has no manifest digest")
	}
	manifest, digest, err := c.Manifest(ctx, st.ID)
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if digest != st.ManifestDigest || obs.ManifestDigest(manifest) != digest {
		t.Errorf("manifest digest mismatch: header %s, status %s", digest, st.ManifestDigest)
	}
}

// jobKinds drives one client surface per job kind, for the tests of
// the handlers campaigns and sweeps share.
var jobKinds = []struct {
	kind    string
	unknown string // an ID no job of this kind has
	// submit enqueues a small job of the kind and returns its ID;
	// submitWait does so with ?wait=1, returning once it is terminal.
	submit, submitWait func(context.Context, *testing.T, *client.Client) (string, error)
	manifest           func(context.Context, *client.Client, string) error
	events             func(*client.Client, context.Context, string, func(client.Event) error) error
}{
	{
		kind: "campaign", unknown: "cunknown",
		submit: func(ctx context.Context, t *testing.T, c *client.Client) (string, error) {
			st, err := c.Submit(ctx, server.CampaignSpec{Suite: "cpu2017", Mini: "rate-int", Size: "train"})
			return st.ID, err
		},
		submitWait: func(ctx context.Context, t *testing.T, c *client.Client) (string, error) {
			st, err := c.SubmitWait(ctx, server.CampaignSpec{Suite: "cpu2017", Mini: "rate-int", Size: "train"})
			return st.ID, err
		},
		manifest: func(ctx context.Context, c *client.Client, id string) error {
			_, _, err := c.Manifest(ctx, id)
			return err
		},
		events: (*client.Client).Events,
	},
	{
		kind: "sweep", unknown: "sunknown",
		submit: func(ctx context.Context, t *testing.T, c *client.Client) (string, error) {
			st, err := c.SubmitSweep(ctx, screenOnlySweep(t))
			return st.ID, err
		},
		submitWait: func(ctx context.Context, t *testing.T, c *client.Client) (string, error) {
			st, err := c.SubmitSweepWait(ctx, screenOnlySweep(t))
			return st.ID, err
		},
		manifest: func(ctx context.Context, c *client.Client, id string) error {
			_, _, err := c.SweepManifest(ctx, id)
			return err
		},
		events: (*client.Client).SweepEvents,
	},
}

// screenOnlySweep is sweepSpecT without the escalation phase: the
// analytic screen alone finishes in milliseconds.
func screenOnlySweep(t *testing.T) server.SweepSpec {
	spec := sweepSpecT(t)
	spec.Escalate = "off"
	return spec
}

// TestManifestBeforeRun: the manifest endpoint refuses with 409 until
// the job has actually run — while a campaign is running, and while a
// job of either kind is still queued behind it.
func TestManifestBeforeRun(t *testing.T) {
	for _, k := range jobKinds {
		t.Run(k.kind, func(t *testing.T) {
			release := make(chan struct{})
			started := make(chan struct{}, 1)
			stubCampaigns(t, func(pairs []profile.Pair, opt core.Options) ([]core.Characteristics, error) {
				started <- struct{}{}
				select {
				case <-release:
				case <-opt.Context.Done():
					return nil, opt.Context.Err()
				}
				return make([]core.Characteristics, len(pairs)), nil
			})
			defer close(release)

			_, c, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
			ctx := ctxT(t)
			// Occupy the single worker with a stubbed campaign, so the job
			// under test stays queued.
			running, err := jobKinds[0].submit(ctx, t, c)
			if err != nil {
				t.Fatal(err)
			}
			<-started
			queued, err := k.submit(ctx, t, c)
			if err != nil {
				t.Fatal(err)
			}
			var ae *client.APIError
			if err := jobKinds[0].manifest(ctx, c, running); !errors.As(err, &ae) || ae.Code != http.StatusConflict {
				t.Fatalf("manifest of running campaign err = %v, want 409", err)
			}
			if err := k.manifest(ctx, c, queued); !errors.As(err, &ae) || ae.Code != http.StatusConflict {
				t.Fatalf("manifest of queued %s err = %v, want 409", k.kind, err)
			}
			if err := k.manifest(ctx, c, k.unknown); !client.IsNotFound(err) {
				t.Errorf("manifest for unknown %s err = %v, want not-found", k.kind, err)
			}
		})
	}
}

// TestWaitClientDisconnectCancels: dropping a waiting submission cancels
// its campaign through the job context.
func TestWaitClientDisconnectCancels(t *testing.T) {
	started := make(chan struct{}, 1)
	stubCampaigns(t, func(pairs []profile.Pair, opt core.Options) ([]core.Characteristics, error) {
		started <- struct{}{}
		<-opt.Context.Done()
		return nil, opt.Context.Err()
	})
	_, c, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})

	waitCtx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.SubmitWait(waitCtx, server.CampaignSpec{Suite: "cpu2017", Mini: "rate-int", Size: "train"})
		errc <- err
	}()
	<-started
	cancel() // client gives up
	if err := <-errc; err == nil {
		t.Fatal("abandoned SubmitWait returned no error")
	}

	// The lone job must transition to cancelled.
	ctx := ctxT(t)
	deadline := time.Now().Add(5 * time.Second)
	for {
		list, err := c.List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(list) == 1 && list[0].Status == server.StatusCancelled {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign not cancelled after waiting client disconnected: %+v", list)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEventsForFinishedCampaign: subscribing after completion yields
// the status event and then the terminal event immediately, for either
// kind of job.
func TestEventsForFinishedCampaign(t *testing.T) {
	stubCampaigns(t, func(pairs []profile.Pair, opt core.Options) ([]core.Characteristics, error) {
		return make([]core.Characteristics, len(pairs)), nil
	})
	for _, k := range jobKinds {
		t.Run(k.kind, func(t *testing.T) {
			_, c, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
			ctx := ctxT(t)
			id, err := k.submitWait(ctx, t, c)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			if err := k.events(c, ctx, id, func(ev client.Event) error {
				names = append(names, ev.Name)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(names) != 2 || names[0] != "status" || names[1] != "done" {
				t.Fatalf("events for finished %s = %v, want [status done]", k.kind, names)
			}
		})
	}
}

// TestSamplingCampaigns: the per-campaign sampling knob reaches the
// characterization options, invalid knobs are rejected at submit time,
// and sampled campaigns' pairs land in the sampled_* metric counters —
// never in the exact tier split.
func TestSamplingCampaigns(t *testing.T) {
	var mu sync.Mutex
	var seen []machine.Sampling
	stubCampaigns(t, func(pairs []profile.Pair, opt core.Options) ([]core.Characteristics, error) {
		mu.Lock()
		seen = append(seen, opt.Sampling)
		mu.Unlock()
		if opt.Progress != nil {
			opt.Progress(sched.Progress{Done: len(pairs), Total: len(pairs)})
		}
		return make([]core.Characteristics, len(pairs)), nil
	})
	s, c, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 8})
	ctx := ctxT(t)

	// Invalid knob: rejected before the campaign is admitted.
	_, err := c.Submit(ctx, server.CampaignSpec{Suite: "cpu2017", Mini: "rate-int", Size: "train", Sampling: "not-a-knob"})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != http.StatusBadRequest {
		t.Fatalf("bad sampling spec err = %v, want 400", err)
	}

	exact := server.CampaignSpec{Suite: "cpu2017", Mini: "rate-int", Size: "train"}
	sampled := exact
	sampled.Sampling = "default"
	custom := exact
	custom.Sampling = "262144/8192/8192"
	var pairsPer int
	for _, spec := range []server.CampaignSpec{exact, sampled, custom} {
		st, err := c.SubmitWait(ctx, spec)
		if err != nil {
			t.Fatalf("submit %+v: %v", spec, err)
		}
		pairsPer = st.Pairs
	}

	mu.Lock()
	got := append([]machine.Sampling(nil), seen...)
	mu.Unlock()
	want := []machine.Sampling{{}, machine.DefaultSampling(), {Period: 262144, DetailLen: 8192, WarmupLen: 8192}}
	if len(got) != len(want) {
		t.Fatalf("ran %d campaigns, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("campaign %d sampling = %+v, want %+v", i, got[i], want[i])
		}
	}

	m := s.MetricsSnapshot()
	pairs := m["pairs"].(map[string]uint64)
	if pairs["simulated"] != uint64(pairsPer) {
		t.Errorf("exact simulated = %d, want %d", pairs["simulated"], pairsPer)
	}
	if pairs["sampled_simulated"] != uint64(2*pairsPer) {
		t.Errorf("sampled simulated = %d, want %d", pairs["sampled_simulated"], 2*pairsPer)
	}
	if pairs["sampled_from_memory"] != 0 || pairs["sampled_from_store"] != 0 {
		t.Errorf("sampled cache tiers = %v, want zero", pairs)
	}
}

// TestFidelityCampaigns: the spec's fidelity field reaches the campaign
// options, invalid tiers and the analytic+sampling combination are
// rejected at submit time, and analytic pairs land in their own metrics
// quartet.
func TestFidelityCampaigns(t *testing.T) {
	var mu sync.Mutex
	type seenOpt struct {
		fidelity machine.Fidelity
		sampling machine.Sampling
	}
	var seen []seenOpt
	stubCampaigns(t, func(pairs []profile.Pair, opt core.Options) ([]core.Characteristics, error) {
		mu.Lock()
		seen = append(seen, seenOpt{opt.Fidelity, opt.Sampling})
		mu.Unlock()
		if opt.Progress != nil {
			opt.Progress(sched.Progress{Done: len(pairs), Total: len(pairs)})
		}
		return make([]core.Characteristics, len(pairs)), nil
	})
	// The server's base options carry a sampling default, which an
	// explicit analytic request must override.
	s, c, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 8,
		Characterize: core.Options{Scenario: core.Scenario{Sampling: machine.DefaultSampling()}}})
	ctx := ctxT(t)

	base := server.CampaignSpec{Suite: "cpu2017", Mini: "rate-int", Size: "train"}
	bad := base
	bad.Fidelity = "turbo"
	var ae *client.APIError
	if _, err := c.Submit(ctx, bad); !errors.As(err, &ae) || ae.Code != http.StatusBadRequest {
		t.Fatalf("bad fidelity spec err = %v, want 400", err)
	}
	conflicted := base
	conflicted.Fidelity = "analytic"
	conflicted.Sampling = "default"
	if _, err := c.Submit(ctx, conflicted); !errors.As(err, &ae) || ae.Code != http.StatusBadRequest {
		t.Fatalf("analytic+sampling spec err = %v, want 400", err)
	}

	analytic := base
	analytic.Fidelity = "analytic"
	exact := base
	exact.Fidelity = "exact"
	var pairsPer int
	for _, spec := range []server.CampaignSpec{analytic, exact, base} {
		st, err := c.SubmitWait(ctx, spec)
		if err != nil {
			t.Fatalf("submit %+v: %v", spec, err)
		}
		pairsPer = st.Pairs
	}

	mu.Lock()
	got := append([]seenOpt(nil), seen...)
	mu.Unlock()
	want := []seenOpt{
		// Analytic clears the server's sampling default.
		{machine.FidelityAnalytic, machine.Sampling{}},
		// Explicit exact keeps the base knob (core normalizes it to the
		// sampled tier).
		{machine.FidelityExact, machine.DefaultSampling()},
		// No fidelity field inherits the base options untouched.
		{machine.FidelityExact, machine.DefaultSampling()},
	}
	if len(got) != len(want) {
		t.Fatalf("ran %d campaigns, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("campaign %d options = %+v, want %+v", i, got[i], want[i])
		}
	}

	pairs := s.MetricsSnapshot()["pairs"].(map[string]uint64)
	if pairs["analytic_computed"] != uint64(pairsPer) {
		t.Errorf("analytic computed = %d, want %d", pairs["analytic_computed"], pairsPer)
	}
	if pairs["sampled_simulated"] != uint64(2*pairsPer) {
		t.Errorf("sampled simulated = %d, want %d", pairs["sampled_simulated"], 2*pairsPer)
	}
	if pairs["simulated"] != 0 {
		t.Errorf("exact simulated = %d, want 0", pairs["simulated"])
	}
}

// TestScenarioCampaigns: the structured scenario object and the flat
// spec fields resolve to the same campaign options, mixing both is a
// typed 400 naming the conflicting field, and rate-mode pairs land in
// their own metrics quartet.
func TestScenarioCampaigns(t *testing.T) {
	var mu sync.Mutex
	type seenOpt struct {
		rate int
		topo string
	}
	var seen []seenOpt
	stubCampaigns(t, func(pairs []profile.Pair, opt core.Options) ([]core.Characteristics, error) {
		mu.Lock()
		seen = append(seen, seenOpt{opt.RateCopies, opt.Topology.String()})
		mu.Unlock()
		if opt.Progress != nil {
			opt.Progress(sched.Progress{Done: len(pairs), Total: len(pairs)})
		}
		return make([]core.Characteristics, len(pairs)), nil
	})
	s, c, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 8})
	ctx := ctxT(t)

	base := server.CampaignSpec{Suite: "cpu2017", Mini: "rate-int", Size: "train"}

	// Validation errors carry the offending field through the typed
	// client error.
	badCases := []struct {
		mut   func(*server.CampaignSpec)
		field string
	}{
		{func(s *server.CampaignSpec) { s.Topology = "4X4E-random" }, "topology"},
		{func(s *server.CampaignSpec) { s.RateCopies = -2 }, "rate_copies"},
		// Every copy owns a generator and a private hierarchy, so an
		// unbounded count could exhaust the server's memory.
		{func(s *server.CampaignSpec) {
			s.Scenario = &server.ScenarioSpec{RateCopies: core.MaxRateCopies + 1}
		}, "rate_copies"},
		{func(s *server.CampaignSpec) { s.RateCopies = 4; s.Fidelity = "analytic" }, "fidelity"},
		{func(s *server.CampaignSpec) { s.RateCopies = 4; s.Sampling = "default" }, "sampling"},
		{func(s *server.CampaignSpec) { // flat field conflicting with the scenario object
			s.Scenario = &server.ScenarioSpec{RateCopies: 4}
			s.RateCopies = 8
		}, "rate_copies"},
		{func(s *server.CampaignSpec) {
			s.Scenario = &server.ScenarioSpec{Fidelity: "sampled"}
			s.Sampling = "default"
		}, "sampling"},
	}
	for _, tc := range badCases {
		spec := base
		tc.mut(&spec)
		_, err := c.Submit(ctx, spec)
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Code != http.StatusBadRequest {
			t.Fatalf("spec %+v: err = %v, want 400", spec, err)
		}
		if field, _, ok := client.FieldError(err); !ok || field != tc.field {
			t.Errorf("spec %+v: error field = %q (ok=%v), want %q", spec, field, ok, tc.field)
		}
	}

	// Flat fields and the scenario object express the same campaign.
	flat := base
	flat.RateCopies = 4
	flat.Topology = "4P4E-random"
	structured := base
	structured.Scenario = &server.ScenarioSpec{RateCopies: 4, Topology: "4P4E-random"}
	var pairsPer int
	for _, spec := range []server.CampaignSpec{flat, structured} {
		st, err := c.SubmitWait(ctx, spec)
		if err != nil {
			t.Fatalf("submit %+v: %v", spec, err)
		}
		pairsPer = st.Pairs
	}

	mu.Lock()
	got := append([]seenOpt(nil), seen...)
	mu.Unlock()
	want := seenOpt{rate: 4, topo: "4P4E-random"}
	if len(got) != 2 {
		t.Fatalf("ran %d campaigns, want 2", len(got))
	}
	for i, g := range got {
		if g != want {
			t.Errorf("campaign %d options = %+v, want %+v", i, g, want)
		}
	}

	// Rate pairs are accounted in their own quartet, not the exact one.
	pairs := s.MetricsSnapshot()["pairs"].(map[string]uint64)
	if pairs["rate_simulated"] != uint64(2*pairsPer) {
		t.Errorf("rate simulated = %d, want %d", pairs["rate_simulated"], 2*pairsPer)
	}
	if pairs["simulated"] != 0 {
		t.Errorf("exact simulated = %d, want 0", pairs["simulated"])
	}
	if pairs["rate_from_memory"] != 0 || pairs["rate_from_store"] != 0 {
		t.Errorf("rate cache tiers = %v, want zero", pairs)
	}
}
