package obs

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Trace collects a tree of spans for one run (one campaign, typically)
// and renders it as a JSONL run manifest. A nil *Trace is a valid
// no-op tracer: every method on a nil Trace or nil Span does nothing
// and returns nil children, so instrumented code never guards call
// sites — pass nil to turn tracing off and pay only nil checks.
type Trace struct {
	mu     sync.Mutex
	epoch  time.Time
	nextID int
	spans  []*Span
}

// NewTrace returns an empty trace whose clock starts now.
func NewTrace() *Trace {
	return &Trace{epoch: time.Now()}
}

// Start opens a root span (no parent). Returns nil on a nil trace.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(name, "", 0, time.Now())
}

func (t *Trace) newSpan(name, kind string, parent int, start time.Time) *Span {
	s := &Span{t: t, name: name, kind: kind, parent: parent, start: start, dur: -1}
	t.mu.Lock()
	t.nextID++
	s.id = t.nextID
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Span is one timed node in a trace's span tree. The zero value is not
// useful; spans come from Trace.Start, Span.Child, or Span.Stage. A
// nil *Span is a valid no-op. Spans are safe for concurrent use, but a
// single span's Finish is expected to be called once, by its opener.
type Span struct {
	t      *Trace
	id     int
	parent int // 0 for roots
	name   string
	kind   string
	start  time.Time

	mu    sync.Mutex
	dur   time.Duration // -1 while unfinished
	attrs []spanAttr
}

type spanAttr struct {
	key string
	val any
}

// Child opens a sub-span. Returns nil on a nil span.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.newSpan(name, "", s.id, time.Now())
}

// Stage records an already-measured phase as a finished child span of
// kind "stage", back-dated so it ends now. This is how window-loop
// code reports accumulated stage time without opening a span per
// window. It returns the stage span for attributes; no-op, returning
// nil, on a nil span.
func (s *Span) Stage(name string, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	st := s.t.newSpan(name, "stage", s.id, time.Now().Add(-d))
	st.dur = d
	return st
}

// SetAttr attaches a key/value attribute, overwriting an existing key.
// Returns s for chaining; no-op on nil.
func (s *Span) SetAttr(key string, val any) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i].val = val
			s.mu.Unlock()
			return s
		}
	}
	s.attrs = append(s.attrs, spanAttr{key, val})
	s.mu.Unlock()
	return s
}

// Finish closes the span, fixing its duration. Double-finish keeps the
// first duration. No-op on nil.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.dur < 0 {
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// Duration returns the span's duration: its final duration once
// finished, the running elapsed time before that, 0 on nil.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	d := s.dur
	s.mu.Unlock()
	if d < 0 {
		return time.Since(s.start)
	}
	return d
}

// ManifestHeader is the first line of a JSONL run manifest.
type ManifestHeader struct {
	Manifest string `json:"manifest"`
	Version  int    `json:"version"`
	Spans    int    `json:"spans"`
}

// manifestName and manifestVersion identify the JSONL format.
const (
	manifestName    = "speckit-run"
	manifestVersion = 1
)

// ManifestSpan is one span line of a JSONL run manifest. Times are
// microseconds; StartUS is relative to the trace epoch so manifests
// for identical runs differ only where the runs did.
type ManifestSpan struct {
	ID      int            `json:"span"`
	Parent  int            `json:"parent,omitempty"`
	Name    string         `json:"name"`
	Kind    string         `json:"kind,omitempty"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// WriteManifest renders the trace as a JSONL run manifest: a header
// line followed by one line per span in span-ID (creation) order.
// Unfinished spans are written with their elapsed-so-far duration.
// No-op on a nil trace.
func (t *Trace) WriteManifest(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]*Span, len(t.spans))
	copy(spans, t.spans)
	epoch := t.epoch
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].id < spans[j].id })

	enc := json.NewEncoder(w)
	if err := enc.Encode(ManifestHeader{Manifest: manifestName, Version: manifestVersion, Spans: len(spans)}); err != nil {
		return err
	}
	for _, s := range spans {
		s.mu.Lock()
		var attrs map[string]any
		if len(s.attrs) > 0 {
			attrs = make(map[string]any, len(s.attrs))
			for _, a := range s.attrs {
				attrs[a.key] = a.val
			}
		}
		d := s.dur
		s.mu.Unlock()
		if d < 0 {
			d = time.Since(s.start)
		}
		m := ManifestSpan{
			ID:      s.id,
			Parent:  s.parent,
			Name:    s.name,
			Kind:    s.kind,
			StartUS: s.start.Sub(epoch).Microseconds(),
			DurUS:   d.Microseconds(),
			Attrs:   attrs,
		}
		if err := enc.Encode(m); err != nil {
			return err
		}
	}
	return nil
}

// Manifest renders the trace to a byte slice of exactly the
// manifest's length, so a caller that keeps it (a server keeps every
// finished job's) holds none of the render buffer's growth slack.
func (t *Trace) Manifest() ([]byte, error) {
	if t == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := t.WriteManifest(&buf); err != nil {
		return nil, err
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

// Digest returns the sha256 hex digest of the rendered manifest — the
// handle campaign results carry so a reported number is traceable to
// exactly one recorded run. Empty on a nil trace.
func (t *Trace) Digest() (string, error) {
	if t == nil {
		return "", nil
	}
	b, err := t.Manifest()
	if err != nil {
		return "", err
	}
	return ManifestDigest(b), nil
}

// ManifestDigest returns the sha256 hex digest of rendered manifest
// bytes.
func ManifestDigest(manifest []byte) string {
	sum := sha256.Sum256(manifest)
	return hex.EncodeToString(sum[:])
}

// ReadManifest parses a JSONL run manifest produced by WriteManifest.
func ReadManifest(r io.Reader) (ManifestHeader, []ManifestSpan, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var hdr ManifestHeader
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return hdr, nil, err
		}
		return hdr, nil, fmt.Errorf("obs: empty manifest")
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return hdr, nil, fmt.Errorf("obs: manifest header: %w", err)
	}
	if hdr.Manifest != manifestName {
		return hdr, nil, fmt.Errorf("obs: not a %s manifest (got %q)", manifestName, hdr.Manifest)
	}
	if hdr.Version != manifestVersion {
		return hdr, nil, fmt.Errorf("obs: unsupported manifest version %d", hdr.Version)
	}
	var spans []ManifestSpan
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var s ManifestSpan
		if err := json.Unmarshal(line, &s); err != nil {
			return hdr, spans, fmt.Errorf("obs: manifest span %d: %w", len(spans)+1, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return hdr, spans, err
	}
	if len(spans) != hdr.Spans {
		return hdr, spans, fmt.Errorf("obs: manifest truncated: header says %d spans, read %d", hdr.Spans, len(spans))
	}
	return hdr, spans, nil
}

// spanKey is the context key for the active span.
type spanKey struct{}

// ContextWithSpan returns a context carrying the span, for layers that
// cross an API boundary (the scheduler hands each task its pair span
// this way). A nil span is carried as a true nil.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the active span, or nil (a valid no-op span)
// when the context carries none.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}
