package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
	"repro/internal/synth"
	"repro/internal/trace"
)

// tracer keeps the spans of a traced run in memory; they are written as
// JSONL only when the run ends. A nil *tracer records nothing, so the
// traced code paths cost nothing on untraced passes.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu     sync.Mutex
	spans  []span
	first  int // index of the current pass's first span
	counts map[string]float64
}

// span is one timed call at a layer boundary. Spans of one request (a
// pass, a served campaign) share Req; Parent links a span to the span
// that caused it.
type span struct {
	ID     int64          `json:"id"`
	Parent int64          `json:"parent,omitempty"`
	Req    string         `json:"req"`
	Name   string         `json:"name"`
	Start  float64        `json:"start_s"`
	End    float64        `json:"end_s"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]float64{}}
}

// at places a new span: its request id and parent span.
type at struct {
	req    string
	parent int64
}

// open is a span being timed.
type open struct {
	t     *tracer
	id    int64
	at    at
	name  string
	start time.Time
}

// begin starts a span; end records it.
func (t *tracer) begin(name string, a at) *open {
	if t == nil {
		return nil
	}
	return &open{t: t, id: t.next.Add(1), at: a, name: name, start: time.Now()}
}

// under places spans caused by o.
func (o *open) under() at {
	if o == nil {
		return at{}
	}
	return at{req: o.at.req, parent: o.id}
}

func (o *open) end() {
	if o != nil {
		o.t.add(o.id, o.name, o.at, o.start, time.Since(o.start), nil)
	}
}

// record adds an already-measured span and returns its id.
func (t *tracer) record(name string, a at, start time.Time, d time.Duration, attrs map[string]any) int64 {
	if t == nil {
		return 0
	}
	id := t.next.Add(1)
	t.add(id, name, a, start, d, attrs)
	return id
}

func (t *tracer) add(id int64, name string, a at, start time.Time, d time.Duration, attrs map[string]any) {
	s := start.Sub(t.epoch).Seconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: a.parent, Req: a.req, Name: name, Start: s, End: s + d.Seconds(), Attrs: attrs})
	t.mu.Unlock()
}

// count adds v to a named counter of the current pass.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// startPass begins a traced pass: later layer metrics cover only the
// spans and counts recorded from here on.
func (t *tracer) startPass() {
	t.mu.Lock()
	t.first = len(t.spans)
	t.counts = map[string]float64{}
	t.mu.Unlock()
}

// spanLayers maps span names to the per-layer busy-time metric their self
// time feeds. A span's self time is its duration minus its children's.
var spanLayers = map[string]string{
	"synth.new":        "synth.busy_s",
	"synth.drain":      "synth.busy_s",
	"machine.run":      "machine.busy_s",
	"machine.sampled":  "machine.sampled_busy_s",
	"machine.parallel": "machine.parallel_busy_s",
	"machine.shared":   "machine.shared_busy_s",
	"analytic.run":     "analytic.busy_s",
	"core.encode":      "core.encode_s",
	"core.decode":      "core.decode_s",
	"store.write":      "store.write_s",
	"store.read":       "store.read_s",
	"subset":           "subset.busy_s",
	"report":           "report.busy_s",
	"sweep.run":        "sweep.self_s",
}

// passTimes returns, per span name, the summed duration and self time of
// the current pass's spans.
func (t *tracer) passTimes() (total, self map[string]float64) {
	t.mu.Lock()
	spans := t.spans[t.first:]
	t.mu.Unlock()
	children := map[int64]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	total, self = map[string]float64{}, map[string]float64{}
	for _, s := range spans {
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d - children[s.ID]
	}
	return total, self
}

// layers turns the current pass into per-layer metrics. busy is the busy
// worker time of the pass; its residual is what no layer's self time
// accounts for. set carries the metrics the workload measured itself.
func (t *tracer) layers(busy float64, set map[string]float64) map[string]float64 {
	total, self := t.passTimes()
	t.mu.Lock()
	counts := t.counts
	t.mu.Unlock()
	m := map[string]float64{}
	attributed := 0.0
	for name, layer := range spanLayers {
		m[layer] += self[name]
		attributed += self[name]
	}
	if s := m["synth.busy_s"]; s > 0 {
		m["synth.muops_per_s"] = counts["synth.uops"] / s / 1e6
	}
	if d := total["machine.run"]; d > 0 {
		m["machine.sim_minstr_per_s"] = counts["machine.exact_uops"] / d / 1e6
	}
	m["machine.uops"] = counts["machine.exact_uops"] + counts["machine.sampled_uops"]
	if n := counts["core.records"]; n > 0 {
		m["core.record_bytes"] = counts["core.bytes"] / n
	}
	for k, v := range set {
		m[k] = v
	}
	m["busy_s"] = busy
	m["residual_s"] = busy - attributed
	return m
}

// layerMetric is one per-layer metric: its unit and the end-to-end
// metric and workload it should move.
type layerMetric struct {
	name, unit, moves string
}

var layerMetrics = []layerMetric{
	{"synth.busy_s", "s", "paper-cold wall_s"},
	{"synth.muops_per_s", "Muop/s", "paper-cold wall_s"},
	{"machine.busy_s", "s", "paper-cold wall_s, results_per_s"},
	{"machine.sim_minstr_per_s", "Minstr/s", "paper-cold wall_s, results_per_s"},
	{"machine.uops", "count", "paper-cold wall_s, results_per_s"},
	{"machine.parallel_busy_s", "s", "scenario-cold wall_s"},
	{"machine.shared_busy_s", "s", "scenario-cold wall_s"},
	{"machine.sampled_busy_s", "s", "sweep-screen wall_s"},
	{"analytic.busy_s", "s", "sweep-screen wall_s"},
	{"core.encode_s", "s", "paper-cold wall_s"},
	{"core.decode_s", "s", "serve-warm req_p50_s, results_per_s"},
	{"core.record_bytes", "B", "serve-warm req_p50_s; paper-cold wall_s"},
	{"store.write_s", "s", "paper-cold wall_s"},
	{"store.writes", "count", "paper-cold wall_s"},
	{"store.read_s", "s", "serve-warm req_p50_s"},
	{"store.hits", "count", "serve-warm req_p50_s"},
	{"store.misses", "count", "serve-warm req_p50_s"},
	{"store.corrupt", "count", "serve-warm req_p50_s"},
	{"sched.wait_s", "s", "paper-cold and serve-warm results_per_s"},
	{"sched.hit_ratio", "frac", "paper-cold and serve-warm results_per_s"},
	{"subset.busy_s", "s", "paper-cold wall_s"},
	{"report.busy_s", "s", "paper-cold wall_s"},
	{"server.queue_wait_s", "s", "serve-warm req_p99_s"},
	{"server.run_s", "s", "serve-warm req_p50_s, req_p99_s"},
	{"server.http_s", "s", "serve-warm req_p50_s"},
	{"sweep.screen_s", "s", "sweep-screen wall_s"},
	{"sweep.escalate_s", "s", "sweep-screen wall_s"},
	{"sweep.self_s", "s", "sweep-screen wall_s, results_per_s"},
	{"sweep.cells_simulated", "count", "sweep-screen wall_s, results_per_s"},
	{"sweep.frontier_ratio", "frac", "sweep-screen wall_s"},
	{"loadgen.late_p99_s", "s", "validity of serve-warm req_p50_s, req_p99_s"},
	{"busy_s", "s", "every workload: busy worker time of the traced pass"},
	{"residual_s", "s", "every workload: busy_s not covered by a layer"},
	{"trace.overhead_s", "s", "every workload: traced minus untraced wall"},
}

func layerMetricNames() []string {
	names := make([]string, len(layerMetrics))
	for i, l := range layerMetrics {
		names[i] = l.name
	}
	return names
}

func layerUnit(name string) string {
	for _, l := range layerMetrics {
		if l.name == name {
			return l.unit
		}
	}
	return ""
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	layerMetric
	value float64
}

func layerTable(m map[string]float64) []layerRow {
	rows := make([]layerRow, len(layerMetrics))
	for i, l := range layerMetrics {
		rows[i] = layerRow{l, m[l.name]}
	}
	return rows
}

func writeLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "  %-26s %14s %-9s %s\n", "layer metric", "value", "unit", "moves")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-26s %14.6g %-9s %s\n", r.name, r.value, r.unit, r.moves)
	}
}

// timedSource wraps a synth generator so the time the kernel spends
// pulling uops from it — the synth drain of the same stream — is
// measured inside machine.Run. It forwards the skip capabilities the
// sampled kernel uses, so the stream and the results are unchanged.
// Branch-warming callbacks of SkipWarm run inside the measured call.
type timedSource struct {
	g    *synth.Generator
	busy time.Duration
	uops uint64
}

func (s *timedSource) Next(u *trace.Uop) bool {
	t := time.Now()
	ok := s.g.Next(u)
	s.busy += time.Since(t)
	if ok {
		s.uops++
	}
	return ok
}

func (s *timedSource) NextBatch(buf []trace.Uop) int {
	t := time.Now()
	n := s.g.NextBatch(buf)
	s.busy += time.Since(t)
	s.uops += uint64(n)
	return n
}

func (s *timedSource) Skip(n uint64) uint64 {
	t := time.Now()
	k := s.g.Skip(n)
	s.busy += time.Since(t)
	return k
}

func (s *timedSource) SkipWarm(n uint64, observe func(*trace.Uop)) uint64 {
	t := time.Now()
	k := s.g.SkipWarm(n, observe)
	s.busy += time.Since(t)
	return k
}

// timedBackend is a sched.Backend that times every store call.
type timedBackend struct {
	tr    *tracer
	inner sched.Backend
	place atomic.Pointer[at]
}

// under places the backend's and codec's spans under a campaign span.
func (b *timedBackend) under(a at) { b.place.Store(&a) }

func (b *timedBackend) at() at {
	if p := b.place.Load(); p != nil {
		return *p
	}
	return at{}
}

func (b *timedBackend) Load(key string) ([]byte, bool) {
	sp := b.tr.begin("store.read", b.at())
	data, ok := b.inner.Load(key)
	sp.end()
	return data, ok
}

func (b *timedBackend) Store(key string, data []byte) {
	sp := b.tr.begin("store.write", b.at())
	b.inner.Store(key, data)
	sp.end()
}

// timedCodec is a sched.Codec that times every encode and decode and
// counts record bytes.
type timedCodec struct {
	b     *timedBackend
	inner sched.Codec
}

func (c timedCodec) Encode(v any) ([]byte, error) {
	sp := c.b.tr.begin("core.encode", c.b.at())
	data, err := c.inner.Encode(v)
	sp.end()
	c.b.tr.count("core.records", 1)
	c.b.tr.count("core.bytes", float64(len(data)))
	return data, err
}

func (c timedCodec) Decode(data []byte) (any, error) {
	sp := c.b.tr.begin("core.decode", c.b.at())
	v, err := c.inner.Decode(data)
	sp.end()
	c.b.tr.count("core.records", 1)
	c.b.tr.count("core.bytes", float64(len(data)))
	return v, err
}
