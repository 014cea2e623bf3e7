// Package server implements specserved's HTTP characterization service:
// a bounded campaign queue in front of the internal/sched engine, with
// per-job cancellation, SSE progress streaming, Prometheus metrics and a
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
//	                                 and sweep-cell counters split by
//	                                 source, stage and store latency
//	                                 histograms, HTTP request metrics,
//	                                 queue, job, cache and fleet
//	                                 gauges); specserved's only metrics
//	                                 exposition.
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
// keyed by content hashes of pair model + machine + options. New
// installs a memory cache when the configuration has none.
//
// A finished campaign keeps its spec, timestamps, counters and manifest
// and, on success, one []byte per result: the encoded record the
// cache's memory tier holds for that pair (sched.Cache.Record), shared
// by every job that names it, not a decoded copy. It drops its resolved
// pairs once it has run. A full status, whether the ?wait=1 reply or
// GET /v1/campaigns/{id}, splices those records into "results"
// verbatim; a record is the JSON core.Characteristics.WriteJSON writes,
// so the bytes are those the decoded results would encode to.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/jsonx"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sched"
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
	// MultiplexSlots, the machine and the scenario knobs they set.
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
	// Scenario is the measurement scenario in its one text spelling,
	// the -scenario flag syntax core.ParseScenario reads, e.g. "analytic",
	// "sampling=131072/4096/4096" or "rate=4,topo=4P4E-random". Knobs it
	// leaves unset inherit the server's base options
	// (core.Scenario.Over); empty means the base scenario. Every non-exact
	// tier and every contention scenario is keyed separately in every
	// cache tier, and its pairs are reported under their own sampled_*,
	// analytic_* or rate_* counters in /metrics.
	Scenario string `json:"scenario,omitempty"`
	// Machine, when non-nil, overrides the server's base machine
	// configuration for this campaign (the declarative JSON form;
	// decoding validates it). This is how sweep coordinators forward a
	// grid point's configuration to fleet workers: the JSON round-trip
	// is fingerprint-stable, so worker-side content keys match the
	// coordinator's exactly.
	Machine *machine.Config `json:"machine,omitempty"`
	// Pairs, when non-empty, filters the expanded suite to exactly the
	// named pairs (profile.Pair.Name, e.g. "502.gcc_r-in3"), in the
	// order given. Unknown or duplicate names reject the spec. This is
	// how the coordinator scatters a campaign: each worker receives the
	// same suite/size spec narrowed to its chunk of pairs.
	Pairs []string `json:"pairs,omitempty"`
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

// suiteExpansions holds each expanded (suite, mini, size) selection,
// keyed by its lower-cased names. The profile tables are fixed, so each
// selection is expanded once per process; only valid names are stored.
var suiteExpansions sync.Map // string -> []profile.Pair

// expandSuite returns the pairs of the named suite, mini-suite and
// size, shared between every spec naming them: callers must not
// modify the slice.
func expandSuite(suite, mini, sizeName string) ([]profile.Pair, error) {
	key := strings.ToLower(suite) + "\x00" + strings.ToLower(mini) + "\x00" + strings.ToLower(sizeName)
	if pairs, ok := suiteExpansions.Load(key); ok {
		return pairs.([]profile.Pair), nil
	}
	apps, err := profile.ParseSuite(suite)
	if err != nil {
		return nil, badField("suite", "%v", err)
	}
	if apps, err = profile.FilterMini(apps, mini); err != nil {
		return nil, badField("mini", "%v", err)
	}
	size, err := profile.ParseSize(sizeName)
	if err != nil {
		return nil, badField("size", "%v", err)
	}
	pairs, _ := suiteExpansions.LoadOrStore(key, profile.ExpandSuite(apps, size))
	return pairs.([]profile.Pair), nil
}

// resolve expands the spec into the campaign's pair list, a slice of
// its own.
func (spec *CampaignSpec) resolve() ([]profile.Pair, error) {
	pairs, err := expandSuite(spec.Suite, spec.Mini, spec.Size)
	if err != nil {
		return nil, err
	}
	if len(spec.Pairs) == 0 {
		pairs = slices.Clone(pairs)
	} else if len(pairs) > 0 {
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

// campaignWork is a campaign job's kind-specific state. A finished
// campaign keeps its spec, counters and, on success, one record slice
// per result; the resolved pairs go once it has run.
type campaignWork struct {
	spec CampaignSpec
	// pairs is the resolved pair list, dropped once the campaign has
	// run; npairs keeps its length for the status.
	pairs  []profile.Pair
	npairs int
	// scenario is the spec's parsed and validated scenario, layered
	// over the server's base options at run time (core.Scenario.Over:
	// zero knobs inherit the base).
	scenario core.Scenario

	progress sched.Progress
	// records holds a done campaign's results as their encoded records:
	// slices of the records in the server cache's memory tier, shared
	// with every other job that names the same pair, not copies.
	records [][]byte
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
	c.npairs = len(c.pairs)
	if c.scenario, err = core.ParseScenario(c.spec.Scenario); err != nil {
		return nil, err
	}
	// The analytic tier refuses some machines; say so now, not when the
	// job runs.
	if opt := c.options(s.cfg.Characterize).Normalized(); opt.Fidelity == machine.FidelityAnalytic {
		if err := analytic.CheckConfig(opt.Machine); err != nil {
			return nil, badField("machine", "%v", err)
		}
	}
	return c, nil
}

// options returns the campaign's options on top of the server's base:
// the spec's instruction, multiplex and machine overrides and its
// scenario over the base scenario.
func (c *campaignWork) options(base core.Options) core.Options {
	opt := withOverrides(base, c.spec.Instructions, c.spec.MultiplexSlots)
	if c.spec.Machine != nil {
		opt.Machine = *c.spec.Machine
	}
	opt.Scenario = c.scenario.Over(opt.Scenario)
	return opt
}

func (c *campaignWork) status(j *job, full bool) any {
	st := CampaignStatus{
		ID: j.id, Spec: c.spec, Status: j.status, Pairs: c.npairs,
		Created: j.created, Error: j.errMsg,
		Progress:       progressStatus(c.progress),
		ManifestDigest: j.manifestDigest,
	}
	st.Started, st.Finished = j.stamps()
	if st.Progress.Total == 0 {
		st.Progress.Total = c.npairs
	}
	if full && j.status == StatusDone {
		return recordStatus{CampaignStatus: st, records: c.records}
	}
	return st
}

func (c *campaignWork) run(s *Server, j *job, tr *obs.Trace) error {
	opt := c.options(s.cfg.Characterize)
	opt.Context = j.ctx
	opt.Progress = func(p sched.Progress) { j.publish(func() { c.progress = p }, progressStatus(p)) }
	opt.Trace = tr

	var records [][]byte
	var err error
	if len(s.cfg.Fleet) > 0 {
		var keys []string
		if _, keys, err = s.runFleet(j.ctx, j.id, c.spec, c.pairs, opt); err == nil {
			records, err = core.Records(opt.Cache, keys)
		}
	} else {
		records, err = runCampaign(c.pairs, opt)
	}

	j.mu.Lock()
	p := c.progress
	if err == nil {
		c.records = records
	}
	c.pairs = nil
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
	metServedPairs[mode].add(p.Done-p.CacheHits-p.Remote, p.CacheHits-p.StoreHits, p.StoreHits, p.Remote)
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

	wg sync.WaitGroup

	// fleetUp tracks each configured fleet worker's last observed health
	// (pre-scatter probes and dispatch evictions write it); 1:1 with
	// cfg.Fleet, nil on a non-coordinator server.
	fleetUp []atomic.Bool
}

// runCampaign is the worker's campaign entry point; tests swap it to
// observe queueing and cancellation without paying for simulations.
var runCampaign = core.CharacterizeRecords

// New builds the server and starts its worker pool. Call Drain to stop.
// A nil Config.Characterize.Cache gets a memory cache shared by every
// job: results are content-keyed and bit-identical, so sharing them is
// safe, and it is what lets finished campaigns hold shared records.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.Characterize.Cache == nil {
		cfg.Characterize.Cache = sched.NewCache()
	}
	s := &Server{
		cfg:    cfg,
		queue:  make(chan *job, cfg.QueueDepth),
		jobs:   make(map[string]*job),
		nextID: make(map[*jobKind]int),
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

// sources are the ways a finished pair or sweep cell was satisfied, in
// tally order: simulated here (computed, for analytic pairs), served
// from the memory or the store tier, or computed by a fleet worker.
var sources = [4]string{"simulated", "memory", "store", "remote"}

// bySource is one tallied value's counters, in source order.
type bySource [4]*obs.Counter

// add counts finished work by source.
func (q bySource) add(simulated, memory, store, remote int) {
	for i, n := range [4]int{simulated, memory, store, remote} {
		q[i].Add(uint64(n))
	}
}

// metTallies registers series{label=value, source=...} for every value
// and source, returning each value's counters.
func metTallies(series, help, label string, values ...string) map[string]bySource {
	m := make(map[string]bySource, len(values))
	for _, v := range values {
		var q bySource
		for i, src := range sources {
			q[i] = obs.Default().Counter(series, help, label, v, "source", src)
		}
		m[v] = q
	}
	return m
}

// Finished work by where it came from. "remote" pairs and cells were
// computed on fleet workers by a coordinator. A warmed-up deployment
// shows the differential win directly: source="simulated" stays flat
// while store/memory grow.
var (
	metServedPairs = metTallies("speckit_served_pairs_total",
		"Pairs in completed campaigns by fidelity tier and satisfying source.",
		"mode", "exact", "sampled", "analytic", "rate")
	metSweepCells = metTallies("speckit_sweep_cells_total",
		"Sweep cells by phase and satisfying source.", "phase", "screen", "escalate")
)

// publishMetrics points the server gauges at s. GaugeFunc replaces a
// re-registered series, so the most recently built server wins (tests
// build several per process; real processes build one).
func (s *Server) publishMetrics() {
	reg := obs.Default()
	reg.GaugeFunc("speckit_server_queue_depth",
		"Jobs waiting in the submission queue.", func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("speckit_cache_entries",
		"Results held in the server cache's memory tier.", func() float64 {
			return float64(s.cfg.Characterize.Cache.Len())
		})
	help := "Jobs known to the server by kind and state."
	for _, k := range []*jobKind{campaignKind, sweepKind} {
		for _, state := range []string{StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCancelled} {
			reg.GaugeFunc("speckit_server_jobs", help, func() float64 {
				return float64(s.states(k)[state])
			}, "kind", k.noun, "state", state)
			help = ""
		}
	}
	help = "Configured fleet workers by last observed health."
	for _, state := range []string{"healthy", "unhealthy"} {
		reg.GaugeFunc("speckit_fleet_workers", help, func() float64 {
			n := 0
			for i := range s.fleetUp {
				if s.fleetUp[i].Load() == (state == "healthy") {
					n++
				}
			}
			return float64(n)
		}, "state", state)
		help = ""
	}
}
