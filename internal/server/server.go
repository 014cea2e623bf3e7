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
// Campaigns and sweeps are two kinds of one job: a single record (ID,
// context, status and timestamps, error, cancel reason, SSE subscribers,
// run manifest, done channel) kept in one ID-keyed table in submission
// order, admitted by one submit path to one bounded queue and served by
// one handler set registered per kind. A kind contributes only its spec,
// its resolved inputs, progress and result, its wire status and its
// execute body.
//
// Every job runs under an obs.Trace; its manifest digest is reported in
// the job status, so any served result is traceable to exactly one
// recorded run.
//
// Results served twice are bit-identical: campaigns run through the same
// memoizing cache (and optional persistent store tier) as the CLI tools,
// keyed by content hashes of pair model + machine + options.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strconv"
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
	// Suite ("cpu2017" or "cpu2006"), Mini ("all", "rate-int",
	// "rate-fp", "speed-int" or "speed-fp") and Size ("test", "train" or
	// "ref") select the workloads as profile.ParseSuite, FilterMini and
	// ParseSize read them: any case, and empty means cpu2017, all, ref.
	Suite string `json:"suite"`
	Mini  string `json:"mini,omitempty"`
	Size  string `json:"size"`
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

// errNoPairs rejects a spec whose filters leave no pairs to run.
var errNoPairs = errors.New("spec selects no application-input pairs")

// resolve expands the spec into the campaign's pair list.
func (spec *CampaignSpec) resolve() ([]profile.Pair, error) {
	apps, err := profile.ParseSuite(spec.Suite)
	if err != nil {
		return nil, badField("suite", "%v", err)
	}
	if apps, err = profile.FilterMini(apps, spec.Mini); err != nil {
		return nil, badField("mini", "%v", err)
	}
	size, err := profile.ParseSize(spec.Size)
	if err != nil {
		return nil, badField("size", "%v", err)
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
		return nil, errNoPairs
	}
	return pairs, nil
}

// Job statuses.
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

func progressStatus(p sched.Progress) ProgressStatus {
	return ProgressStatus{
		Done: p.Done, Total: p.Total,
		CacheHits: p.CacheHits, StoreHits: p.StoreHits,
		Remote:    p.Remote,
		ElapsedMS: p.Elapsed.Milliseconds(),
	}
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

// campaignWork is a campaign job's kind-specific state.
type campaignWork struct {
	spec  CampaignSpec
	pairs []profile.Pair
	// scenario is the spec's validated scenario (whichever spec form
	// carried it), layered over the server's base options at run time
	// (core.Scenario.Over: zero knobs inherit the base).
	scenario core.Scenario

	progress sched.Progress
	results  []core.Characteristics
}

func newCampaignWork(s *Server, body io.Reader) (jobWork, error) {
	c := &campaignWork{}
	if err := decodeSpec(body, &c.spec); err != nil {
		return nil, err
	}
	var err error
	if c.pairs, err = c.spec.resolve(); err != nil {
		return nil, err
	}
	view, err := c.spec.scenarioView()
	if err != nil {
		return nil, err
	}
	if c.scenario, err = view.decode(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *campaignWork) status(j *job, full bool) any {
	st := CampaignStatus{
		ID: j.id, Spec: c.spec, Status: j.status, Pairs: len(c.pairs),
		Created: j.created, Error: j.errMsg,
		Progress:       progressStatus(c.progress),
		ManifestDigest: j.manifestDigest,
	}
	st.Started, st.Finished = j.stamps()
	if st.Progress.Total == 0 {
		st.Progress.Total = len(c.pairs)
	}
	if full && j.status == StatusDone {
		st.Results = c.results
	}
	return st
}

func (c *campaignWork) run(s *Server, j *job, tr *obs.Trace) error {
	opt := withOverrides(s.cfg.Characterize, c.spec.Instructions, c.spec.MultiplexSlots)
	if c.spec.Machine != nil {
		opt.Machine = *c.spec.Machine
	}
	opt.Scenario = c.scenario.Over(opt.Scenario)
	opt.Context = j.ctx
	opt.Progress = func(p sched.Progress) { j.publish(func() { c.progress = p }, progressStatus(p)) }
	opt.Trace = tr

	var results []core.Characteristics
	var err error
	if len(s.cfg.Fleet) > 0 {
		results, err = s.runFleet(j.ctx, j.id, c.spec, c.pairs, opt)
	} else {
		results, err = runCampaign(c.pairs, opt)
	}

	j.mu.Lock()
	p := c.progress
	if err == nil {
		c.results = results
	}
	j.mu.Unlock()
	// Tally completed pairs by where they came from, per fidelity mode:
	// /metrics never conflates estimates with exact results, the two
	// estimate tiers with each other, or plain exact pairs with rate and
	// topology pairs (exact simulations of a different experiment).
	mode := "exact"
	switch {
	case opt.RateCopies > 1 || opt.Topology.Enabled():
		mode = "rate"
	case opt.Fidelity == machine.FidelityAnalytic:
		mode = "analytic"
	case opt.Sampling.Enabled():
		mode = "sampled"
	}
	s.served[mode].add(p.Done-p.CacheHits-p.Remote, p.CacheHits-p.StoreHits, p.StoreHits, p.Remote)
	return err
}

// Server is the characterization service.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	queue chan *job

	mu       sync.Mutex
	jobs     map[string]*job // campaigns and sweeps, by ID
	order    []string        // submission order, for listing
	nextID   map[*jobKind]int
	draining bool

	wg      sync.WaitGroup
	started time.Time

	rejected atomic.Uint64
	// served tallies pairs in finished campaigns by fidelity mode
	// (exact, sampled, analytic, rate); cells tallies sweep cells by
	// phase (screen, escalate), the fidelity-escalation scoreboard.
	served, cells map[string]*tally

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
		queue:   make(chan *job, cfg.QueueDepth),
		jobs:    make(map[string]*job),
		nextID:  make(map[*jobKind]int),
		started: time.Now(),
		served:  newTallies(metServedPairs),
		cells:   newTallies(metSweepCells),
	}
	if n := len(cfg.Fleet); n > 0 {
		s.fleetUp = make([]atomic.Bool, n)
		for i := range s.fleetUp {
			s.fleetUp[i].Store(true) // optimistic until the first probe
		}
	}
	s.mux = http.NewServeMux()
	s.routes(campaignKind)
	s.routes(sweepKind)
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

// withOverrides returns base options with a spec's instruction window
// and multiplexing overrides applied.
func withOverrides(opt core.Options, instructions uint64, multiplexSlots int) core.Options {
	if instructions > 0 {
		opt.Instructions = instructions
	}
	if multiplexSlots > 0 {
		opt.MultiplexSlots = multiplexSlots
	}
	return opt
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
	for _, j := range s.listJobs(nil) {
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
		switch {
		case s.isDraining():
			j.finish(StatusCancelled, "server draining")
		case j.ctx.Err() != nil:
			j.finish(StatusCancelled, j.reason("cancelled before start"))
		default:
			s.execute(j)
		}
	}
}

// --- HTTP helpers -----------------------------------------------------

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

// sources are the ways a finished pair or sweep cell was satisfied, in
// tally order: simulated here (computed, for analytic pairs), served
// from the memory or the store tier, or computed by a fleet worker.
var sources = [4]string{"simulated", "memory", "store", "remote"}

// tally counts finished work by source: per-server atomics behind the
// expvar map plus their process-wide Prometheus twins.
type tally struct {
	n   [4]atomic.Uint64
	met [4]*obs.Counter
}

// add counts work by source, in both the atomics and the twins.
func (t *tally) add(simulated, memory, store, remote int) {
	for i, n := range [4]int{simulated, memory, store, remote} {
		t.n[i].Add(uint64(n))
		t.met[i].Add(uint64(n))
	}
}

// put records the tally in m under keys, given in source order.
func (t *tally) put(m map[string]uint64, keys ...string) {
	for i, k := range keys {
		m[k] = t.n[i].Load()
	}
}

// metTallies registers series{label=value, source=...} for every value
// and source, returning each value's counters in source order.
func metTallies(series, help, label string, values ...string) map[string][4]*obs.Counter {
	m := make(map[string][4]*obs.Counter, len(values))
	for _, v := range values {
		var q [4]*obs.Counter
		for i, src := range sources {
			q[i] = obs.Default().Counter(series, help, label, v, "source", src)
		}
		m[v] = q
	}
	return m
}

func newTallies(met map[string][4]*obs.Counter) map[string]*tally {
	m := make(map[string]*tally, len(met))
	for k, q := range met {
		m[k] = &tally{met: q}
	}
	return m
}

// The tallies' Prometheus twins. "remote" pairs and cells were computed
// on fleet workers by a coordinator. A warmed-up deployment shows the
// differential win directly: source="simulated" stays flat while
// store/memory grow.
var (
	metServedPairs = metTallies("speckit_served_pairs_total",
		"Pairs in completed campaigns by fidelity tier and satisfying source.",
		"mode", "exact", "sampled", "analytic", "rate")
	metSweepCells = metTallies("speckit_sweep_cells_total",
		"Sweep cells by phase and satisfying source.", "phase", "screen", "escalate")
)

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
			return float64(srv.states(campaignKind)[state])
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

// MetricsSnapshot returns the live metrics served under /metrics as the
// "specserved" expvar: queue occupancy, job states, where completed
// pairs and sweep cells came from (simulated vs. memory vs. store tier),
// and the campaign cache / persistent store counters.
func (s *Server) MetricsSnapshot() map[string]any {
	s.mu.Lock()
	queueLen := len(s.queue)
	draining := s.draining
	s.mu.Unlock()

	pairs := map[string]uint64{}
	s.served["exact"].put(pairs, "simulated", "from_memory", "from_store", "from_remote")
	s.served["sampled"].put(pairs, "sampled_simulated", "sampled_from_memory", "sampled_from_store", "sampled_from_remote")
	s.served["analytic"].put(pairs, "analytic_computed", "analytic_from_memory", "analytic_from_store", "analytic_from_remote")
	s.served["rate"].put(pairs, "rate_simulated", "rate_from_memory", "rate_from_store", "rate_from_remote")
	cells := map[string]uint64{}
	s.cells["screen"].put(cells, "screen_simulated", "screen_memory", "screen_store", "screen_remote")
	s.cells["escalate"].put(cells, "escalate_simulated", "escalate_memory", "escalate_store", "escalate_remote")

	m := map[string]any{
		"uptime_seconds": time.Since(s.started).Seconds(),
		"draining":       draining,
		"queue": map[string]int{
			"depth":    queueLen,
			"capacity": s.cfg.QueueDepth,
			"workers":  s.cfg.Workers,
		},
		"jobs": map[string]any{
			"states":   s.states(campaignKind),
			"rejected": s.rejected.Load(),
		},
		"pairs":  pairs,
		"sweeps": map[string]any{"states": s.states(sweepKind), "cells": cells},
	}
	m["pair_windows"] = machine.PairWindowStats()
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
