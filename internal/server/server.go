// Package server implements specserved's HTTP characterization service:
// a bounded campaign queue in front of the internal/sched engine, with
// per-job cancellation, SSE progress streaming, expvar metrics and a
// graceful drain for SIGTERM.
//
// API (all request/response bodies are JSON):
//
//	POST   /v1/campaigns             submit a campaign; 202 + status,
//	                                 429 when the queue is full,
//	                                 503 while draining.
//	                                 ?wait=1 blocks until the campaign
//	                                 finishes and returns the full
//	                                 result; a client disconnect while
//	                                 waiting cancels the job.
//	GET    /v1/campaigns             list campaign statuses.
//	GET    /v1/campaigns/{id}        status; results included once done.
//	DELETE /v1/campaigns/{id}        cancel a queued or running campaign.
//	GET    /v1/campaigns/{id}/events SSE progress stream
//	                                 (progress events, then one done).
//	GET    /v1/campaigns/{id}/manifest JSONL run manifest (the span tree
//	                                 recorded while the campaign ran);
//	                                 available once terminal.
//	POST   /v1/sweeps                submit a design-space sweep
//	                                 (internal/sweep): same queue,
//	                                 backpressure and ?wait=1 semantics
//	                                 as campaigns.
//	GET    /v1/sweeps                list sweep statuses.
//	GET    /v1/sweeps/{id}           status; grid + knee reports once
//	                                 done.
//	DELETE /v1/sweeps/{id}           cancel a queued or running sweep.
//	GET    /v1/sweeps/{id}/events    SSE progress stream.
//	GET    /v1/sweeps/{id}/manifest  JSONL run manifest.
//	GET    /healthz                  200 ok / 503 draining.
//	GET    /metrics                  Prometheus text format: the
//	                                 process-wide obs registry (pair
//	                                 counters split by cache tier, stage
//	                                 and store latency histograms, HTTP
//	                                 request metrics, queue gauges).
//	GET    /metrics/expvar           expvar JSON, including the
//	                                 "specserved" map (queue, jobs,
//	                                 per-tier cache stats, store stats).
//
// Every campaign runs under an obs.Trace; its manifest digest is
// reported in the campaign status, so any served result is traceable to
// exactly one recorded run.
//
// Results served twice are bit-identical: campaigns run through the same
// memoizing cache (and optional persistent store tier) as the CLI tools,
// keyed by content hashes of pair model + machine + options.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/jsonx"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/store"
)

// Config configures a Server.
type Config struct {
	// Workers is the number of campaigns run concurrently (default 2).
	// Each campaign additionally fans out over
	// Characterize.Parallelism pair workers.
	Workers int
	// QueueDepth bounds the submission queue (default 16); submissions
	// beyond running + queued capacity are rejected with 429.
	QueueDepth int
	// DrainGrace bounds how long Drain waits for in-flight campaigns
	// before cancelling them (0 = wait until they complete).
	DrainGrace time.Duration
	// Characterize is the base options every campaign starts from —
	// machine, instruction window, parallelism, cache and persistent
	// store. Per-request spec fields override Instructions,
	// MultiplexSlots and Sampling.
	Characterize core.Options
	// Fleet, when non-empty, turns this server into a coordinator:
	// instead of simulating locally, each campaign's pairs are scattered
	// across these workers by consistent hash of the pair's result-cache
	// content key and the gathered results are written through the
	// coordinator's own cache tiers. The fleet must be homogeneous —
	// every worker running the same machine model and base flags — or
	// worker-side keys (and bits) would diverge from the coordinator's.
	Fleet []RemoteWorker
	// FleetChunk bounds how many pairs one scattered sub-campaign
	// carries (default 4). Smaller chunks give the dispatcher more
	// stealing and resubmission granularity; larger ones amortize
	// per-request overhead.
	FleetChunk int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.FleetChunk <= 0 {
		c.FleetChunk = 4
	}
	return c
}

// CampaignSpec is the client's description of one campaign.
type CampaignSpec struct {
	// Suite is "cpu2017" or "cpu2006".
	Suite string `json:"suite"`
	// Mini filters to one mini-suite: "all" (or empty), "rate-int",
	// "rate-fp", "speed-int", "speed-fp".
	Mini string `json:"mini,omitempty"`
	// Size is the input size: "test", "train" or "ref".
	Size string `json:"size"`
	// Instructions overrides the server's per-pair instruction window
	// when positive.
	Instructions uint64 `json:"instructions,omitempty"`
	// MultiplexSlots overrides the server's counter-multiplexing
	// emulation when positive.
	MultiplexSlots int `json:"multiplex_slots,omitempty"`
	// Sampling is the flat spelling of Scenario.Sampling.
	Sampling string `json:"sampling,omitempty"`
	// Machine, when non-nil, overrides the server's base machine
	// configuration for this campaign (the declarative JSON form;
	// decoding validates it). This is how sweep coordinators forward a
	// grid point's configuration to fleet workers: the JSON round-trip
	// is fingerprint-stable, so worker-side content keys match the
	// coordinator's exactly.
	Machine *machine.Config `json:"machine,omitempty"`
	// Fidelity, WorkersPerPair, RateCopies and Topology are the flat
	// spellings of the equally named Scenario fields.
	Fidelity       string `json:"fidelity,omitempty"`
	WorkersPerPair int    `json:"workers_per_pair,omitempty"`
	RateCopies     int    `json:"rate_copies,omitempty"`
	Topology       string `json:"topology,omitempty"`
	// Scenario, when non-nil, is the structured form of the measurement
	// scenario. It replaces the flat sampling, fidelity,
	// workers_per_pair, rate_copies and topology fields, which must then
	// stay unset — a spec naming a knob in both forms is rejected with a
	// field-tagged 400. Flat-only specs keep working unchanged: they
	// decode into the same core.Scenario.
	Scenario *ScenarioSpec `json:"scenario,omitempty"`
	// Pairs, when non-empty, filters the expanded suite to exactly the
	// named pairs (profile.Pair.Name, e.g. "502.gcc_r-in3"), in the
	// order given. Unknown or duplicate names reject the spec. This is
	// how the coordinator scatters a campaign: each worker receives the
	// same suite/size spec narrowed to its chunk of pairs.
	Pairs []string `json:"pairs,omitempty"`
}

// ScenarioSpec is the wire form of a campaign's measurement scenario
// (core.Scenario, whose field docs give the semantics): which tier
// simulates the pairs and under what contention/topology model. Knobs
// left empty or at their default (exact, off, 0) inherit the server's
// base options (core.Scenario.Over). Every non-exact tier and every
// contention scenario is keyed separately in every cache tier, and its
// pairs are reported under their own sampled_*, analytic_* or rate_*
// counters in /metrics.
type ScenarioSpec struct {
	// Fidelity is the tier: "exact", "sampled" (shorthand for the
	// default sampling knob) or "analytic".
	Fidelity string `json:"fidelity,omitempty"`
	// Sampling is the sampling knob: "off", "default", or
	// "PERIOD/DETAIL/WARMUP" instruction counts.
	Sampling string `json:"sampling,omitempty"`
	// WorkersPerPair splits each pair into that many concurrently
	// simulated windows (intra-pair parallelism, exact tier only).
	WorkersPerPair int `json:"workers_per_pair,omitempty"`
	// RateCopies runs that many co-running copies on a shared L3
	// (rate mode, exact tier only, at most core.MaxRateCopies).
	RateCopies int `json:"rate_copies,omitempty"`
	// Topology is a P/E-core topology with its placement policy, e.g.
	// "4P4E-random" (machine.ParseTopology syntax; exact tier only).
	Topology string `json:"topology,omitempty"`
}

// scenarioView returns the spec's scenario knobs in structured form
// regardless of which form carried them, rejecting specs that use both
// forms for any knob.
func (spec *CampaignSpec) scenarioView() (ScenarioSpec, error) {
	if spec.Scenario == nil {
		return ScenarioSpec{
			Fidelity:       spec.Fidelity,
			Sampling:       spec.Sampling,
			WorkersPerPair: spec.WorkersPerPair,
			RateCopies:     spec.RateCopies,
			Topology:       spec.Topology,
		}, nil
	}
	conflict := ""
	switch {
	case spec.Sampling != "":
		conflict = "sampling"
	case spec.Fidelity != "":
		conflict = "fidelity"
	case spec.WorkersPerPair != 0:
		conflict = "workers_per_pair"
	case spec.RateCopies != 0:
		conflict = "rate_copies"
	case spec.Topology != "":
		conflict = "topology"
	}
	if conflict != "" {
		return ScenarioSpec{}, badField(conflict,
			"%q conflicts with the scenario object; set scenario.%s instead", conflict, conflict)
	}
	return *spec.Scenario, nil
}

// decode parses the wire scenario into the typed value and checks it
// with core.Scenario.Validate, so the server enforces exactly the rules
// the library and the CLIs do; every error names its JSON field.
func (v ScenarioSpec) decode() (core.Scenario, error) {
	var sc core.Scenario
	var err error
	if sc.Sampling, err = machine.ParseSampling(v.Sampling); err != nil {
		return sc, badField("sampling", "%v", err)
	}
	if sc.Fidelity, err = machine.ParseFidelity(v.Fidelity); err != nil {
		return sc, badField("fidelity", "%v", err)
	}
	if sc.Topology, err = machine.ParseTopology(v.Topology); err != nil {
		return sc, badField("topology", "%v", err)
	}
	sc.IntraPairWorkers, sc.RateCopies = v.WorkersPerPair, v.RateCopies
	return sc, sc.Validate()
}

// badField ties a campaign-spec validation failure to the JSON field
// that caused it (the type core.Scenario.Validate returns), so a 400
// response carries a machine-readable "field" alongside the
// human-readable "error".
func badField(field, format string, args ...any) *core.FieldError {
	return &core.FieldError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// resolve expands the spec into the campaign's pair list.
func (spec *CampaignSpec) resolve() ([]profile.Pair, error) {
	var apps []*profile.Profile
	switch strings.ToLower(spec.Suite) {
	case "cpu2017", "cpu17", "":
		apps = profile.CPU2017()
	case "cpu2006", "cpu06":
		apps = profile.CPU2006()
	default:
		return nil, badField("suite", "unknown suite %q", spec.Suite)
	}
	switch strings.ToLower(spec.Mini) {
	case "all", "":
	case "rate-int", "rate-fp", "speed-int", "speed-fp":
		want := map[string]profile.Suite{
			"rate-int": profile.RateInt, "rate-fp": profile.RateFP,
			"speed-int": profile.SpeedInt, "speed-fp": profile.SpeedFP,
		}[strings.ToLower(spec.Mini)]
		var kept []*profile.Profile
		for _, app := range apps {
			if app.Suite == want {
				kept = append(kept, app)
			}
		}
		apps = kept
	default:
		return nil, badField("mini", "unknown mini-suite %q", spec.Mini)
	}
	var size profile.InputSize
	switch strings.ToLower(spec.Size) {
	case "test":
		size = profile.Test
	case "train":
		size = profile.Train
	case "ref", "":
		size = profile.Ref
	default:
		return nil, badField("size", "unknown input size %q", spec.Size)
	}
	pairs := profile.ExpandSuite(apps, size)
	if len(pairs) > 0 && len(spec.Pairs) > 0 {
		byName := make(map[string]int, len(pairs))
		for i := range pairs {
			byName[pairs[i].Name()] = i
		}
		picked := make([]profile.Pair, 0, len(spec.Pairs))
		seen := make(map[string]bool, len(spec.Pairs))
		for _, name := range spec.Pairs {
			i, ok := byName[name]
			if !ok {
				return nil, badField("pairs", "pair %q is not in the selected suite", name)
			}
			if seen[name] {
				return nil, badField("pairs", "pair %q named twice", name)
			}
			seen[name] = true
			picked = append(picked, pairs[i])
		}
		pairs = picked
	}
	if len(pairs) == 0 {
		return nil, errors.New("spec selects no application-input pairs")
	}
	return pairs, nil
}

// Campaign statuses.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// ProgressStatus is the JSON form of a campaign progress snapshot.
type ProgressStatus struct {
	Done      int `json:"done"`
	Total     int `json:"total"`
	CacheHits int `json:"cache_hits"`
	StoreHits int `json:"store_hits"`
	// Remote counts pairs completed on fleet workers; always zero on a
	// non-coordinator server.
	Remote    int   `json:"remote,omitempty"`
	ElapsedMS int64 `json:"elapsed_ms"`
}

// CampaignStatus is the JSON form of one campaign's state.
type CampaignStatus struct {
	ID       string                 `json:"id"`
	Spec     CampaignSpec           `json:"spec"`
	Status   string                 `json:"status"`
	Pairs    int                    `json:"pairs"`
	Created  time.Time              `json:"created"`
	Started  *time.Time             `json:"started,omitempty"`
	Finished *time.Time             `json:"finished,omitempty"`
	Progress ProgressStatus         `json:"progress"`
	Error    string                 `json:"error,omitempty"`
	Results  []core.Characteristics `json:"results,omitempty"`
	// ManifestDigest is the sha256 of the campaign's JSONL run manifest
	// (GET /v1/campaigns/{id}/manifest), set once the campaign ran:
	// the handle that ties any reported number to exactly one recorded
	// run.
	ManifestDigest string `json:"manifest_digest,omitempty"`
}

// sseEvent is one server-sent event.
type sseEvent struct {
	name string
	data []byte
}

// campaign is the server-side state of one submitted job.
type campaign struct {
	id    string
	spec  CampaignSpec
	pairs []profile.Pair
	// scenario is the spec's validated scenario (whichever spec form
	// carried it), layered over the server's base options at run time
	// (core.Scenario.Over: zero knobs inherit the base).
	scenario core.Scenario

	// ctx is cancelled by DELETE, a waiting client's disconnect, or the
	// drain timeout; the sched engine aborts queued and in-flight pairs
	// through it (the PR 1 cancellation path).
	ctx    context.Context
	cancel context.CancelFunc

	mu           sync.Mutex
	status       string
	created      time.Time
	started      time.Time
	finished     time.Time
	progress     sched.Progress
	results      []core.Characteristics
	errMsg       string
	cancelReason string
	subs         map[chan sseEvent]struct{}
	// manifest and manifestDigest hold the rendered JSONL run manifest
	// once the campaign has run (empty for jobs cancelled before start).
	manifest       []byte
	manifestDigest string

	// done is closed exactly once when the campaign reaches a terminal
	// status; SSE streams and ?wait=1 submitters block on it.
	done chan struct{}
}

func (c *campaign) snapshot(includeResults bool) CampaignStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CampaignStatus{
		ID: c.id, Spec: c.spec, Status: c.status, Pairs: len(c.pairs),
		Created: c.created, Error: c.errMsg,
		Progress: ProgressStatus{
			Done: c.progress.Done, Total: c.progress.Total,
			CacheHits: c.progress.CacheHits, StoreHits: c.progress.StoreHits,
			Remote:    c.progress.Remote,
			ElapsedMS: c.progress.Elapsed.Milliseconds(),
		},
	}
	if st.Progress.Total == 0 {
		st.Progress.Total = len(c.pairs)
	}
	if !c.started.IsZero() {
		t := c.started
		st.Started = &t
	}
	if !c.finished.IsZero() {
		t := c.finished
		st.Finished = &t
	}
	if includeResults && c.status == StatusDone {
		st.Results = c.results
	}
	st.ManifestDigest = c.manifestDigest
	return st
}

func (c *campaign) terminal() bool {
	switch c.status {
	case StatusDone, StatusFailed, StatusCancelled:
		return true
	}
	return false
}

// finish moves the campaign to a terminal status once; later calls are
// no-ops (e.g. a DELETE racing the worker's own completion).
func (c *campaign) finish(status string, results []core.Characteristics, errMsg string) {
	c.mu.Lock()
	if c.terminal() {
		c.mu.Unlock()
		return
	}
	c.status = status
	c.results = results
	c.errMsg = errMsg
	c.finished = time.Now()
	close(c.done)
	c.mu.Unlock()
	c.cancel() // release the context regardless of how we finished
}

func (c *campaign) setRunning() {
	c.mu.Lock()
	c.status = StatusRunning
	c.started = time.Now()
	c.mu.Unlock()
}

func (c *campaign) setProgress(p sched.Progress) {
	c.mu.Lock()
	c.progress = p
	c.mu.Unlock()
	data, _ := json.Marshal(ProgressStatus{
		Done: p.Done, Total: p.Total,
		CacheHits: p.CacheHits, StoreHits: p.StoreHits,
		Remote:    p.Remote,
		ElapsedMS: p.Elapsed.Milliseconds(),
	})
	c.broadcast(sseEvent{name: "progress", data: data})
}

// requestCancel records why the job is being cancelled and cancels its
// context. A queued job is finished immediately; a running one aborts
// through the scheduler and is finished by its worker.
func (c *campaign) requestCancel(reason string) {
	c.mu.Lock()
	if c.terminal() {
		c.mu.Unlock()
		return
	}
	if c.cancelReason == "" {
		c.cancelReason = reason
	}
	queued := c.status == StatusQueued
	c.mu.Unlock()
	c.cancel()
	if queued {
		c.finish(StatusCancelled, nil, reason)
	}
}

func (c *campaign) subscribe() chan sseEvent {
	ch := make(chan sseEvent, 64)
	c.mu.Lock()
	c.subs[ch] = struct{}{}
	c.mu.Unlock()
	return ch
}

func (c *campaign) unsubscribe(ch chan sseEvent) {
	c.mu.Lock()
	delete(c.subs, ch)
	c.mu.Unlock()
}

// broadcast fans an event out to subscribers, dropping it for any
// subscriber whose buffer is full — terminal state is delivered via the
// done channel, so slow consumers only lose intermediate snapshots.
func (c *campaign) broadcast(ev sseEvent) {
	c.mu.Lock()
	for ch := range c.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	c.mu.Unlock()
}

// job is what the shared worker pool pulls off the bounded queue:
// campaigns and sweeps ride the same queue, so QueueDepth bounds (and
// 429 backpressure covers) the server's total admitted work.
type job interface {
	jobCtx() context.Context
	// abort finishes the job as cancelled without running it (drain, or
	// cancellation while still queued).
	abort(reason string)
	cancelReasonOr(fallback string) string
	execute(s *Server)
}

func (c *campaign) jobCtx() context.Context { return c.ctx }
func (c *campaign) abort(reason string)     { c.finish(StatusCancelled, nil, reason) }
func (c *campaign) execute(s *Server)       { s.run(c) }
func (c *campaign) cancelReasonOr(fallback string) string {
	return c.reason(fallback)
}

// Server is the characterization service.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	queue chan job

	mu          sync.Mutex
	jobs        map[string]*campaign
	order       []string // submission order, for listing
	nextID      int
	sweeps      map[string]*sweepJob
	sweepOrder  []string
	nextSweepID int
	draining    bool

	wg      sync.WaitGroup
	started time.Time

	rejected        atomic.Uint64
	pairsSimulated  atomic.Uint64
	pairsFromCache  atomic.Uint64
	pairsFromStore  atomic.Uint64
	pairsFromRemote atomic.Uint64

	// Sampled campaigns account their pairs separately: sampled results
	// are estimates, so mixing them into the exact counters would make
	// the tier split lie about how much exact simulation the server did.
	sampledSimulated  atomic.Uint64
	sampledFromCache  atomic.Uint64
	sampledFromStore  atomic.Uint64
	sampledFromRemote atomic.Uint64

	// Analytic campaigns likewise: predictions, not simulations, with
	// their own error profile.
	analyticComputed   atomic.Uint64
	analyticFromCache  atomic.Uint64
	analyticFromStore  atomic.Uint64
	analyticFromRemote atomic.Uint64

	// Rate-mode and topology campaigns likewise: exact simulations of a
	// different experiment (shared-L3 contention, placement
	// distributions), never conflated with plain exact pairs.
	rateSimulated  atomic.Uint64
	rateFromCache  atomic.Uint64
	rateFromStore  atomic.Uint64
	rateFromRemote atomic.Uint64

	// Sweep cells account separately from campaign pairs, split by
	// phase: the screen/escalate ratio is the fidelity-escalation
	// scoreboard, and the simulated/store split is the differential-
	// scheduling one.
	sweepScreenCells   cellCounters
	sweepEscalateCells cellCounters

	// fleetUp tracks each configured fleet worker's last observed health
	// (pre-scatter probes and dispatch evictions write it); 1:1 with
	// cfg.Fleet, nil on a non-coordinator server.
	fleetUp []atomic.Bool
}

// runCampaign is the worker's campaign entry point; tests swap it to
// observe queueing and cancellation without paying for simulations.
var runCampaign = core.Characterize

// New builds the server and starts its worker pool. Call Drain to stop.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		queue:   make(chan job, cfg.QueueDepth),
		jobs:    make(map[string]*campaign),
		sweeps:  make(map[string]*sweepJob),
		started: time.Now(),
	}
	if n := len(cfg.Fleet); n > 0 {
		s.fleetUp = make([]atomic.Bool, n)
		for i := range s.fleetUp {
			s.fleetUp[i].Store(true) // optimistic until the first probe
		}
	}
	s.mux = http.NewServeMux()
	s.handle("POST /v1/campaigns", "submit", s.handleSubmit)
	s.handle("GET /v1/campaigns", "list", s.handleList)
	s.handle("GET /v1/campaigns/{id}", "get", s.handleGet)
	s.handle("DELETE /v1/campaigns/{id}", "delete", s.handleDelete)
	s.handle("GET /v1/campaigns/{id}/events", "events", s.handleEvents)
	s.handle("GET /v1/campaigns/{id}/manifest", "manifest", s.handleManifest)
	s.handle("POST /v1/sweeps", "sweep-submit", s.handleSweepSubmit)
	s.handle("GET /v1/sweeps", "sweep-list", s.handleSweepList)
	s.handle("GET /v1/sweeps/{id}", "sweep-get", s.handleSweepGet)
	s.handle("DELETE /v1/sweeps/{id}", "sweep-delete", s.handleSweepDelete)
	s.handle("GET /v1/sweeps/{id}/events", "sweep-events", s.handleSweepEvents)
	s.handle("GET /v1/sweeps/{id}/manifest", "sweep-manifest", s.handleSweepManifest)
	s.handle("GET /healthz", "health", s.handleHealth)
	s.handle("GET /metrics", "metrics", handlePrometheus)
	s.handle("GET /metrics/expvar", "expvar", expvar.Handler().ServeHTTP)
	s.publishMetrics()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// handle registers an instrumented route: requests are counted by
// (route, status code) and timed into a per-route latency histogram.
// Routes carry an explicit label because the mux pattern is not
// recoverable from the request under this module's Go version.
func (s *Server) handle(pattern, route string, h http.HandlerFunc) {
	hist := obs.Default().Histogram("speckit_http_request_seconds",
		"HTTP request latency by route.", obs.LatencyBuckets, "route", route)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		hist.ObserveDuration(time.Since(start))
		obs.Default().Counter("speckit_http_requests_total",
			"HTTP requests by route and status code.",
			"route", route, "code", strconv.Itoa(sw.code)).Inc()
	})
}

// statusWriter captures the response code for the request metrics and
// forwards Flush so SSE streaming keeps working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handlePrometheus renders the process-wide obs registry in the
// Prometheus text exposition format.
func handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.Default().WritePrometheus(w)
}

// Drain stops admission (submits return 503, healthz flips to 503),
// cancels still-queued campaigns, and waits for in-flight campaigns to
// finish — or cancels them after Config.DrainGrace. Safe to call more
// than once; every call returns only when the pool has stopped.
func (s *Server) Drain() {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	if first {
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	if s.cfg.DrainGrace > 0 {
		select {
		case <-done:
			return
		case <-time.After(s.cfg.DrainGrace):
			s.cancelAll("server shutting down")
		}
	}
	<-done
}

func (s *Server) cancelAll(reason string) {
	s.mu.Lock()
	jobs := make([]*campaign, 0, len(s.jobs))
	for _, c := range s.jobs {
		jobs = append(jobs, c)
	}
	sweeps := make([]*sweepJob, 0, len(s.sweeps))
	for _, j := range s.sweeps {
		sweeps = append(sweeps, j)
	}
	s.mu.Unlock()
	for _, c := range jobs {
		c.requestCancel(reason)
	}
	for _, j := range sweeps {
		j.requestCancel(reason)
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// worker pulls jobs (campaigns and sweeps) off the bounded queue until
// Drain closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		if s.isDraining() {
			j.abort("server draining")
			continue
		}
		if j.jobCtx().Err() != nil {
			j.abort(j.cancelReasonOr("cancelled before start"))
			continue
		}
		j.execute(s)
	}
}

func (c *campaign) reason(fallback string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cancelReason != "" {
		return c.cancelReason
	}
	return fallback
}

func (s *Server) run(c *campaign) {
	c.setRunning()
	opt := s.cfg.Characterize
	if c.spec.Instructions > 0 {
		opt.Instructions = c.spec.Instructions
	}
	if c.spec.MultiplexSlots > 0 {
		opt.MultiplexSlots = c.spec.MultiplexSlots
	}
	if c.spec.Machine != nil {
		opt.Machine = *c.spec.Machine
	}
	opt.Scenario = c.scenario.Over(opt.Scenario)
	opt.Context = c.ctx
	opt.Progress = c.setProgress
	tr := obs.NewTrace()
	opt.Trace = tr

	var results []core.Characteristics
	var err error
	if len(s.cfg.Fleet) > 0 {
		results, err = s.runFleet(c.ctx, c.id, c.spec, c.pairs, opt)
	} else {
		results, err = runCampaign(c.pairs, opt)
	}

	// Render the run manifest before flipping the terminal status, so a
	// client that observes "done" can always fetch the manifest whose
	// digest the status reports.
	if manifest, merr := tr.Manifest(); merr == nil {
		c.mu.Lock()
		c.manifest = manifest
		c.manifestDigest = obs.ManifestDigest(manifest)
		c.mu.Unlock()
	}

	// Account completed pairs by where they came from before flipping
	// the terminal status; each non-exact tier feeds its own counter
	// quartet so /metrics never conflates estimates with exact results —
	// or the two estimate tiers with each other.
	c.mu.Lock()
	p := c.progress
	c.mu.Unlock()
	fromStore, fromCache, fromRemote, simulated := &s.pairsFromStore, &s.pairsFromCache, &s.pairsFromRemote, &s.pairsSimulated
	mode := "exact"
	switch {
	case opt.RateCopies > 1 || opt.Topology.Enabled():
		// Rate/topology pairs are exact-tier simulations, but of a
		// different experiment (contention, placement distributions), so
		// their tier split reports separately from plain exact pairs.
		fromStore, fromCache, fromRemote, simulated = &s.rateFromStore, &s.rateFromCache, &s.rateFromRemote, &s.rateSimulated
		mode = "rate"
	case opt.Fidelity == machine.FidelityAnalytic:
		fromStore, fromCache, fromRemote, simulated = &s.analyticFromStore, &s.analyticFromCache, &s.analyticFromRemote, &s.analyticComputed
		mode = "analytic"
	case opt.Sampling.Enabled():
		fromStore, fromCache, fromRemote, simulated = &s.sampledFromStore, &s.sampledFromCache, &s.sampledFromRemote, &s.sampledSimulated
		mode = "sampled"
	}
	fromStore.Add(uint64(p.StoreHits))
	fromCache.Add(uint64(p.CacheHits - p.StoreHits))
	fromRemote.Add(uint64(p.Remote))
	simulated.Add(uint64(p.Done - p.CacheHits - p.Remote))
	metServedPairs[mode+"/store"].Add(uint64(p.StoreHits))
	metServedPairs[mode+"/memory"].Add(uint64(p.CacheHits - p.StoreHits))
	metServedPairs[mode+"/remote"].Add(uint64(p.Remote))
	metServedPairs[mode+"/simulated"].Add(uint64(p.Done - p.CacheHits - p.Remote))

	switch {
	case err == nil:
		c.finish(StatusDone, results, "")
	case c.ctx.Err() != nil || errors.Is(err, context.Canceled):
		c.finish(StatusCancelled, nil, c.reason("cancelled"))
	default:
		c.finish(StatusFailed, nil, err.Error())
	}
}

// --- HTTP handlers ----------------------------------------------------

// jsonAppender is a response value with a hand-written encoder
// (CampaignStatus): writeJSON appends it directly instead of running
// encoding/json, whose reflection and compaction of Marshaler output
// would dominate the cost of serving stored results.
type jsonAppender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// respBufs recycles response buffers across requests.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeJSON encodes v, followed by a newline as json.Encoder writes it,
// into a buffer before sending any header, so an encoding failure is a
// JSON 500 rather than a 200 with a truncated body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	bp := respBufs.Get().(*[]byte)
	defer respBufs.Put(bp)
	data, err := appendJSON((*bp)[:0], v)
	if err != nil {
		code = http.StatusInternalServerError
		data = append((*bp)[:0], `{"error":`...)
		data = jsonx.AppendString(data, "encoding response: "+err.Error(), false)
		data = append(data, "}\n"...)
	}
	*bp = data
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(code)
	w.Write(data)
}

func appendJSON(dst []byte, v any) ([]byte, error) {
	if a, ok := v.(jsonAppender); ok {
		b, err := a.AppendJSON(dst)
		return append(b, '\n'), err
	}
	buf := bytes.NewBuffer(dst)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeSpecError renders a 400 for a spec validation failure; when the
// error is field-tagged (core.FieldError) the envelope carries the
// offending JSON field so typed clients can point at it.
func writeSpecError(w http.ResponseWriter, err error) {
	var fe *core.FieldError
	if errors.As(err, &fe) {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": "bad campaign spec: " + fe.Msg,
			"field": fe.Field,
		})
		return
	}
	writeError(w, http.StatusBadRequest, "bad campaign spec: %v", err)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec CampaignSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeSpecError(w, err)
		return
	}
	pairs, err := spec.resolve()
	if err != nil {
		writeSpecError(w, err)
		return
	}
	view, err := spec.scenarioView()
	if err != nil {
		writeSpecError(w, err)
		return
	}
	scenario, err := view.decode()
	if err != nil {
		writeSpecError(w, err)
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	c := &campaign{
		spec: spec, pairs: pairs, scenario: scenario,
		ctx: ctx, cancel: cancel,
		status: StatusQueued, created: time.Now(),
		subs: make(map[chan sseEvent]struct{}),
		done: make(chan struct{}),
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.nextID++
	c.id = fmt.Sprintf("c%06d", s.nextID)
	select {
	case s.queue <- c:
		s.jobs[c.id] = c
		s.order = append(s.order, c.id)
	default:
		s.nextID--
		s.mu.Unlock()
		cancel()
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"campaign queue is full (%d queued); retry later", s.cfg.QueueDepth)
		return
	}
	s.mu.Unlock()

	if wait := r.URL.Query().Get("wait"); wait == "1" || strings.EqualFold(wait, "true") {
		select {
		case <-c.done:
			writeJSON(w, http.StatusOK, c.snapshot(true))
		case <-r.Context().Done():
			// The client that asked to wait is gone: cancel its job
			// through the scheduler's context path.
			c.requestCancel("client disconnected")
		}
		return
	}
	w.Header().Set("Location", "/v1/campaigns/"+c.id)
	writeJSON(w, http.StatusAccepted, c.snapshot(false))
}

func (s *Server) lookup(r *http.Request) (*campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.jobs[r.PathValue("id")]
	return c, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	includeResults := r.URL.Query().Get("results") != "0"
	writeJSON(w, http.StatusOK, c.snapshot(includeResults))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*campaign, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]CampaignStatus, len(jobs))
	for i, c := range jobs {
		out[i] = c.snapshot(false)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	c.requestCancel("cancelled by client")
	writeJSON(w, http.StatusAccepted, c.snapshot(false))
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	c.mu.Lock()
	manifest, digest := c.manifest, c.manifestDigest
	c.mu.Unlock()
	if len(manifest) == 0 {
		writeError(w, http.StatusConflict, "campaign %s has not run yet", c.id)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Manifest-Digest", digest)
	w.Write(manifest)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	serveSSE(w, r, c.subscribe, c.unsubscribe, c.done,
		func() []byte { return mustJSON(c.snapshot(false)) })
}

// serveSSE streams one job's event feed: an initial status event, live
// progress events, then a final done event once the job is terminal.
// Campaigns and sweeps share it.
func serveSSE(w http.ResponseWriter, r *http.Request,
	subscribe func() chan sseEvent, unsubscribe func(chan sseEvent),
	done <-chan struct{}, snapshot func() []byte) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	ch := subscribe()
	defer unsubscribe(ch)

	writeSSE(w, sseEvent{name: "status", data: snapshot()})
	flusher.Flush()
	for {
		select {
		case ev := <-ch:
			writeSSE(w, ev)
			flusher.Flush()
		case <-done:
			// Flush any progress still buffered, then the terminal event.
			for {
				select {
				case ev := <-ch:
					writeSSE(w, ev)
				default:
					writeSSE(w, sseEvent{name: "done", data: snapshot()})
					flusher.Flush()
					return
				}
			}
		case <-r.Context().Done():
			// An SSE watcher leaving does not cancel the job — other
			// watchers (or none) may still want the result.
			return
		}
	}
}

func writeSSE(w http.ResponseWriter, ev sseEvent) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		return []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	return data
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// --- Metrics ----------------------------------------------------------

// expvar.Publish panics on duplicate names, so the "specserved" map is
// published once per process and routed to whichever Server was built
// most recently (tests build several; real processes build one). The
// obs gauge funcs follow the same active-server indirection — GaugeFunc
// is replace-on-reregister, so repeated New calls just repoint them.
var (
	metricsOnce  sync.Once
	activeServer atomic.Pointer[Server]
)

// metServedPairs counts pairs in completed campaigns, split by fidelity
// tier (exact vs sampled vs analytic estimates) and satisfying source — the
// Prometheus twin of the per-server atomics behind the expvar map.
// "remote" pairs were computed on fleet workers by a coordinator.
var metServedPairs = func() map[string]*obs.Counter {
	m := make(map[string]*obs.Counter)
	help := "Pairs in completed campaigns by fidelity tier and satisfying source."
	for _, mode := range []string{"exact", "sampled", "analytic", "rate"} {
		for _, src := range []string{"simulated", "memory", "store", "remote"} {
			m[mode+"/"+src] = obs.Default().Counter("speckit_served_pairs_total", help,
				"mode", mode, "source", src)
			help = ""
		}
	}
	return m
}()

func (s *Server) publishMetrics() {
	activeServer.Store(s)
	reg := obs.Default()
	reg.GaugeFunc("speckit_server_queue_depth",
		"Campaigns waiting in the submission queue.", func() float64 {
			if srv := activeServer.Load(); srv != nil {
				return float64(len(srv.queue))
			}
			return 0
		})
	help := "Campaigns known to the server by state."
	for _, state := range []string{StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCancelled} {
		state := state
		reg.GaugeFunc("speckit_server_jobs", help, func() float64 {
			srv := activeServer.Load()
			if srv == nil {
				return 0
			}
			return float64(srv.countJobs(state))
		}, "state", state)
		help = ""
	}
	help = "Configured fleet workers by last observed health."
	for _, state := range []string{"healthy", "unhealthy"} {
		state := state
		reg.GaugeFunc("speckit_fleet_workers", help, func() float64 {
			srv := activeServer.Load()
			if srv == nil {
				return 0
			}
			up := 0
			for i := range srv.fleetUp {
				if srv.fleetUp[i].Load() {
					up++
				}
			}
			if state == "healthy" {
				return float64(up)
			}
			return float64(len(srv.fleetUp) - up)
		}, "state", state)
		help = ""
	}
	metricsOnce.Do(func() {
		expvar.Publish("specserved", expvar.Func(func() any {
			srv := activeServer.Load()
			if srv == nil {
				return nil
			}
			return srv.MetricsSnapshot()
		}))
	})
}

func (s *Server) countJobs(state string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.jobs {
		c.mu.Lock()
		if c.status == state {
			n++
		}
		c.mu.Unlock()
	}
	return n
}

// MetricsSnapshot returns the live metrics served under /metrics as the
// "specserved" expvar: queue occupancy, job states, where completed
// pairs came from (simulated vs. memory vs. store tier), and the
// campaign cache / persistent store counters.
func (s *Server) MetricsSnapshot() map[string]any {
	s.mu.Lock()
	states := map[string]int{}
	for _, c := range s.jobs {
		c.mu.Lock()
		states[c.status]++
		c.mu.Unlock()
	}
	queueLen := len(s.queue)
	draining := s.draining
	s.mu.Unlock()

	m := map[string]any{
		"uptime_seconds": time.Since(s.started).Seconds(),
		"draining":       draining,
		"queue": map[string]int{
			"depth":    queueLen,
			"capacity": s.cfg.QueueDepth,
			"workers":  s.cfg.Workers,
		},
		"jobs": map[string]any{
			"states":   states,
			"rejected": s.rejected.Load(),
		},
		"pairs": map[string]uint64{
			"simulated":            s.pairsSimulated.Load(),
			"from_memory":          s.pairsFromCache.Load(),
			"from_store":           s.pairsFromStore.Load(),
			"from_remote":          s.pairsFromRemote.Load(),
			"sampled_simulated":    s.sampledSimulated.Load(),
			"sampled_from_memory":  s.sampledFromCache.Load(),
			"sampled_from_store":   s.sampledFromStore.Load(),
			"sampled_from_remote":  s.sampledFromRemote.Load(),
			"analytic_computed":    s.analyticComputed.Load(),
			"analytic_from_memory": s.analyticFromCache.Load(),
			"analytic_from_store":  s.analyticFromStore.Load(),
			"analytic_from_remote": s.analyticFromRemote.Load(),
			"rate_simulated":       s.rateSimulated.Load(),
			"rate_from_memory":     s.rateFromCache.Load(),
			"rate_from_store":      s.rateFromStore.Load(),
			"rate_from_remote":     s.rateFromRemote.Load(),
		},
	}
	m["pair_windows"] = machine.PairWindowStats()
	m["sweeps"] = s.sweepSnapshot()
	if n := len(s.cfg.Fleet); n > 0 {
		workers := make([]map[string]any, n)
		for i, w := range s.cfg.Fleet {
			workers[i] = map[string]any{
				"name":    w.Name(),
				"healthy": s.fleetUp[i].Load(),
			}
		}
		m["fleet"] = map[string]any{
			"chunk":   s.cfg.FleetChunk,
			"workers": workers,
		}
	}
	if cache := s.cfg.Characterize.Cache; cache != nil {
		st := cache.Stats()
		m["cache"] = map[string]any{
			"hits":        st.Hits,
			"memory_hits": st.MemoryHits,
			"store_hits":  st.StoreHits,
			"misses":      st.Misses,
			"hit_rate":    st.HitRate(),
			"entries":     cache.Len(),
		}
	}
	if fs, ok := s.cfg.Characterize.Store.(*store.Store); ok && fs != nil {
		st := fs.Stats()
		m["store"] = map[string]any{
			"dir":          fs.Dir(),
			"hits":         st.Hits,
			"misses":       st.Misses,
			"corrupt":      st.Corrupt,
			"writes":       st.Writes,
			"write_errors": st.WriteErrors,
		}
	}
	return m
}
