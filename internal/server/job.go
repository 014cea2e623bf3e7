package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// sseEvent is one server-sent event.
type sseEvent struct {
	name string
	data []byte
}

// jobKind is what the shared submit path and handler set know about one
// kind of job.
type jobKind struct {
	noun     string // "campaign" or "sweep", in error messages
	path     string // the collection route, e.g. "/v1/campaigns"
	route    string // request-metric route label prefix
	idPrefix string
	// newWork decodes and validates a submit body into the kind's work.
	newWork func(s *Server, body io.Reader) (jobWork, error)
}

var (
	campaignKind = &jobKind{noun: "campaign", path: "/v1/campaigns", idPrefix: "c", newWork: newCampaignWork}
	sweepKind    = &jobKind{noun: "sweep", path: "/v1/sweeps", route: "sweep-", idPrefix: "s", newWork: newSweepWork}
)

// jobWork is the part of a job that differs by kind: its spec, resolved
// inputs, progress and result (all guarded by the job's mu), how it
// renders its wire status, and its execute body.
type jobWork interface {
	// status renders the wire status (CampaignStatus or SweepStatus)
	// with j.mu held; full includes the result once the job is done.
	status(j *job, full bool) any
	// run executes the body under j.ctx, tracing into tr. It publishes
	// progress, tallies the work it completed and, on success, keeps its
	// result.
	run(s *Server, j *job, tr *obs.Trace) error
}

// job is the server-side record of one submitted campaign or sweep. Both
// kinds share this lifecycle, the server's one job table and the bounded
// queue, so QueueDepth bounds (and 429 backpressure covers) the server's
// total admitted work.
type job struct {
	kind *jobKind
	id   string
	work jobWork

	// ctx is cancelled by DELETE, a waiting client's disconnect, or the
	// drain timeout; the engines abort queued and in-flight pairs
	// through it.
	ctx    context.Context
	cancel context.CancelFunc

	mu           sync.Mutex
	status       string
	created      time.Time
	started      time.Time
	finished     time.Time
	errMsg       string
	cancelReason string
	subs         map[chan sseEvent]struct{}
	// manifest and manifestDigest hold the rendered JSONL run manifest
	// once the job has run (empty for jobs cancelled before start).
	manifest       []byte
	manifestDigest string

	// done is closed exactly once when the job reaches a terminal
	// status; SSE streams and ?wait=1 submitters block on it.
	done chan struct{}
}

// newJob turns a submit body into a queued job of kind k, or into the
// error its 400 reports: the decoder's, a *core.FieldError naming the
// offending field, or errNoPairs. It queues and runs nothing.
func (s *Server) newJob(k *jobKind, body io.Reader) (*job, error) {
	work, err := k.newWork(s, body)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &job{
		kind: k, work: work, ctx: ctx, cancel: cancel,
		status: StatusQueued, created: time.Now(),
		subs: make(map[chan sseEvent]struct{}),
		done: make(chan struct{}),
	}, nil
}

func (j *job) snapshot(full bool) any {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.work.status(j, full)
}

// stamps returns the start and finish times as the optional wire fields,
// nil until set; the caller holds j.mu.
func (j *job) stamps() (started, finished *time.Time) {
	if !j.started.IsZero() {
		t := j.started
		started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		finished = &t
	}
	return started, finished
}

func (j *job) terminal() bool {
	switch j.status {
	case StatusDone, StatusFailed, StatusCancelled:
		return true
	}
	return false
}

// finish moves the job to a terminal status once; later calls are no-ops
// (e.g. a DELETE racing the worker's own completion).
func (j *job) finish(status, errMsg string) {
	j.mu.Lock()
	if j.terminal() {
		j.mu.Unlock()
		return
	}
	j.status, j.errMsg, j.finished = status, errMsg, time.Now()
	close(j.done)
	j.mu.Unlock()
	j.cancel() // release the context regardless of how we finished
}

// requestCancel records why the job is being cancelled and cancels its
// context. A queued job is finished immediately; a running one aborts
// through its engine and is finished by its worker.
func (j *job) requestCancel(reason string) {
	j.mu.Lock()
	if j.terminal() {
		j.mu.Unlock()
		return
	}
	if j.cancelReason == "" {
		j.cancelReason = reason
	}
	queued := j.status == StatusQueued
	j.mu.Unlock()
	j.cancel()
	if queued {
		j.finish(StatusCancelled, reason)
	}
}

// reason returns the recorded cancel reason, or fallback when there is
// none.
func (j *job) reason(fallback string) string {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelReason != "" {
		return j.cancelReason
	}
	return fallback
}

func (j *job) subscribe() chan sseEvent {
	ch := make(chan sseEvent, 64)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

func (j *job) unsubscribe(ch chan sseEvent) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// publish records a progress snapshot (set runs under j.mu) and
// broadcasts progress, the snapshot's wire form, to the subscribers. It
// drops the event for any subscriber whose buffer is full: terminal state
// is delivered via the done channel, so slow consumers only lose
// intermediate snapshots.
func (j *job) publish(set func(), progress any) {
	data, _ := json.Marshal(progress)
	j.mu.Lock()
	defer j.mu.Unlock()
	set()
	for ch := range j.subs {
		select {
		case ch <- sseEvent{name: "progress", data: data}:
		default:
		}
	}
}

// execute runs a dequeued job: the kind's body, then the run manifest,
// then the terminal status the body's error maps to. The manifest is
// rendered first so a client that observes a terminal status can always
// fetch the manifest whose digest the status reports.
func (s *Server) execute(j *job) {
	j.mu.Lock()
	j.status, j.started = StatusRunning, time.Now()
	j.mu.Unlock()
	tr := obs.NewTrace()
	err := j.work.run(s, j, tr)
	if manifest, merr := tr.Manifest(); merr == nil {
		j.mu.Lock()
		j.manifest, j.manifestDigest = manifest, obs.ManifestDigest(manifest)
		j.mu.Unlock()
	}
	switch {
	case err == nil:
		j.finish(StatusDone, "")
	case j.ctx.Err() != nil || errors.Is(err, context.Canceled):
		j.finish(StatusCancelled, j.reason("cancelled"))
	default:
		j.finish(StatusFailed, err.Error())
	}
}

// --- HTTP handlers, registered once per kind --------------------------

func (s *Server) routes(k *jobKind) {
	s.handle("POST "+k.path, k.route+"submit", func(w http.ResponseWriter, r *http.Request) { s.submit(k, w, r) })
	s.handle("GET "+k.path, k.route+"list", func(w http.ResponseWriter, r *http.Request) {
		out := []any{}
		for _, j := range s.listJobs(k) {
			out = append(out, j.snapshot(false))
		}
		writeJSON(w, http.StatusOK, out)
	})
	s.handle("GET "+k.path+"/{id}", k.route+"get", s.withJob(k, func(w http.ResponseWriter, r *http.Request, j *job) {
		writeJSON(w, http.StatusOK, j.snapshot(r.URL.Query().Get("results") != "0"))
	}))
	s.handle("DELETE "+k.path+"/{id}", k.route+"delete", s.withJob(k, func(w http.ResponseWriter, r *http.Request, j *job) {
		j.requestCancel("cancelled by client")
		writeJSON(w, http.StatusAccepted, j.snapshot(false))
	}))
	s.handle("GET "+k.path+"/{id}/events", k.route+"events", s.withJob(k, serveSSE))
	s.handle("GET "+k.path+"/{id}/manifest", k.route+"manifest", s.withJob(k, serveManifest))
}

// submit is both kinds' POST handler. A valid spec is admitted to the
// shared queue — 503 while draining, 429 with Retry-After when the queue
// is full — and answered with 202, or with ?wait=1 once the job is
// terminal; a client disconnect while waiting cancels the job.
func (s *Server) submit(k *jobKind, w http.ResponseWriter, r *http.Request) {
	j, err := s.newJob(k, http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeSpecError(w, k.noun, err)
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		j.cancel()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.nextID[k]++
	j.id = fmt.Sprintf("%s%06d", k.idPrefix, s.nextID[k])
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	default:
		s.nextID[k]--
		s.mu.Unlock()
		j.cancel()
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"campaign queue is full (%d queued); retry later", s.cfg.QueueDepth)
		return
	}
	s.mu.Unlock()

	if wait := r.URL.Query().Get("wait"); wait == "1" || strings.EqualFold(wait, "true") {
		select {
		case <-j.done:
			writeJSON(w, http.StatusOK, j.snapshot(true))
		case <-r.Context().Done():
			// The client that asked to wait is gone: cancel its job
			// through the engine's context path.
			j.requestCancel("client disconnected")
		}
		return
	}
	w.Header().Set("Location", k.path+"/"+j.id)
	writeJSON(w, http.StatusAccepted, j.snapshot(false))
}

// listJobs returns k's jobs (every job when k is nil) in submission
// order.
func (s *Server) listJobs(k *jobKind) []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; k == nil || j.kind == k {
			out = append(out, j)
		}
	}
	return out
}

// states counts k's jobs by status.
func (s *Server) states(k *jobKind) map[string]int {
	states := map[string]int{}
	for _, j := range s.listJobs(k) {
		j.mu.Lock()
		states[j.status]++
		j.mu.Unlock()
	}
	return states
}

// withJob resolves the {id} path value to one of k's jobs for h, or
// answers 404.
func (s *Server) withJob(k *jobKind, h func(http.ResponseWriter, *http.Request, *job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		s.mu.Lock()
		j, ok := s.jobs[id]
		s.mu.Unlock()
		if !ok || j.kind != k {
			writeError(w, http.StatusNotFound, "no %s %q", k.noun, id)
			return
		}
		h(w, r, j)
	}
}

func serveManifest(w http.ResponseWriter, r *http.Request, j *job) {
	j.mu.Lock()
	manifest, digest := j.manifest, j.manifestDigest
	j.mu.Unlock()
	if len(manifest) == 0 {
		writeError(w, http.StatusConflict, "%s %s has not run yet", j.kind.noun, j.id)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Manifest-Digest", digest)
	w.Write(manifest)
}

// serveSSE streams one job's event feed: an initial status event, live
// progress events, then a final done event once the job is terminal.
func serveSSE(w http.ResponseWriter, r *http.Request, j *job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	ch := j.subscribe()
	defer j.unsubscribe(ch)

	writeSSE(w, sseEvent{name: "status", data: mustJSON(j.snapshot(false))})
	flusher.Flush()
	for {
		select {
		case ev := <-ch:
			writeSSE(w, ev)
			flusher.Flush()
		case <-j.done:
			// Flush any progress still buffered, then the terminal event.
			for {
				select {
				case ev := <-ch:
					writeSSE(w, ev)
				default:
					writeSSE(w, sseEvent{name: "done", data: mustJSON(j.snapshot(false))})
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

// decodeSpec decodes a submit body into spec (a *CampaignSpec or a
// *SweepSpec), rejecting unknown fields. A value of the wrong JSON type,
// or a machine override its own decoder rejects, comes back as a
// *core.FieldError naming the field.
func decodeSpec(body io.Reader, spec any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(spec)
	if te, ok := err.(*json.UnmarshalTypeError); ok && te.Field != "" {
		return badField(te.Field, "%v", err)
	}
	// machine.Config is the specs' one json.Unmarshaler; encoding/json
	// returns its errors unwrapped, and they carry its package prefix.
	if err != nil && strings.HasPrefix(err.Error(), "machine: ") {
		return badField("machine", "%v", err)
	}
	return err
}

// writeSpecError renders a 400 for a spec validation failure; when the
// error is field-tagged (core.FieldError) the envelope carries the
// offending JSON field so typed clients can point at it.
func writeSpecError(w http.ResponseWriter, noun string, err error) {
	var fe *core.FieldError
	if errors.As(err, &fe) {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": "bad " + noun + " spec: " + fe.Msg,
			"field": fe.Field,
		})
		return
	}
	writeError(w, http.StatusBadRequest, "bad %s spec: %v", noun, err)
}
