// Package client is the typed Go client for specserved's /v1 campaign
// API (internal/server). It wraps submission, polling, waiting,
// cancellation, SSE event streaming and manifest retrieval over a plain
// *http.Client, decoding the server's JSON into the same status types
// the server defines so the two sides cannot drift.
//
// The server's e2e tests run entirely through this package, which keeps
// the client honest: every endpoint and error path the tests exercise
// is exercised through the public client surface.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
	"repro/internal/sweep"
)

// Client talks to one specserved instance.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (custom
// transports, timeouts, httptest clients).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// RetryPolicy bounds SubmitWait's automatic retries of the server's
// 429 queue-full rejection.
type RetryPolicy struct {
	// MaxAttempts is the total number of submissions tried (default 6;
	// 1 disables retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff used when the server
	// sends no usable Retry-After hint (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps any single wait, hinted or not (default 2s).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 6
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// WithRetry overrides the client's 429 retry policy (SubmitWait).
// RetryPolicy{MaxAttempts: 1} fails fast like the pre-policy client.
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) { c.retry = p }
}

// New returns a client for the server at base (e.g.
// "http://127.0.0.1:8425"); a trailing slash is tolerated.
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	c.retry = c.retry.withDefaults()
	return c
}

// APIError is a non-2xx response decoded from the server's JSON error
// envelope.
type APIError struct {
	// Code is the HTTP status code.
	Code int
	// Message is the server's error string (or the raw body when the
	// response was not the JSON envelope).
	Message string
	// Field names the campaign-spec JSON field a 400 validation error
	// is about (e.g. "rate_copies", "topology"); empty when the server
	// did not attribute the error to one field.
	Field string
	// RetryAfter is the parsed Retry-After hint on 429 responses; zero
	// when absent.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("server: %s (field %q, HTTP %d)", e.Message, e.Field, e.Code)
	}
	return fmt.Sprintf("server: %s (HTTP %d)", e.Message, e.Code)
}

// FieldError returns the field-tagged validation error behind err: the
// offending campaign-spec field and the server's message. ok is false
// when err carries no field attribution.
func FieldError(err error) (field, msg string, ok bool) {
	var ae *APIError
	if errors.As(err, &ae) && ae.Field != "" {
		return ae.Field, ae.Message, true
	}
	return "", "", false
}

// IsQueueFull reports whether err is the server's 429 queue-full
// rejection.
func IsQueueFull(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == http.StatusTooManyRequests
}

// IsNotFound reports whether err is a 404.
func IsNotFound(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == http.StatusNotFound
}

func (c *Client) do(ctx context.Context, method, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if u, ok := out.(json.Unmarshaler); ok {
		// A campaign status decodes in one pass over the whole body;
		// json.Decoder would first scan it to find the value's end and
		// then again to validate it before calling UnmarshalJSON.
		data, err := readBody(resp)
		if err != nil {
			return err
		}
		return u.UnmarshalJSON(data)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// maxBodyHint caps how much readBody preallocates on the strength of a
// Content-Length header alone.
const maxBodyHint = 64 << 20

// readBody reads a response body, sized up front from Content-Length.
func readBody(resp *http.Response) ([]byte, error) {
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 && n <= maxBodyHint {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// maxRetryAfter caps the Retry-After hint a server can impose: beyond
// it the value is treated as absurd and clamped, so a misconfigured
// (or hostile) server cannot park a retrying client for hours.
const maxRetryAfter = 5 * time.Minute

// parseRetryAfter parses both RFC 9110 Retry-After forms — delay
// seconds ("120") and HTTP-date ("Fri, 08 Aug 2026 10:00:00 GMT") —
// returning the hint clamped to [0, maxRetryAfter]. Zero means no
// usable hint.
func parseRetryAfter(ra string) time.Duration {
	if ra == "" {
		return 0
	}
	var d time.Duration
	if secs, err := strconv.Atoi(strings.TrimSpace(ra)); err == nil {
		d = time.Duration(secs) * time.Second
	} else if t, err := http.ParseTime(ra); err == nil {
		d = time.Until(t)
	} else {
		return 0
	}
	if d < 0 {
		return 0 // a date in the past means "retry now", not "never"
	}
	if d > maxRetryAfter {
		return maxRetryAfter
	}
	return d
}

func decodeError(resp *http.Response) error {
	ae := &APIError{Code: resp.StatusCode}
	ae.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var envelope struct {
		Error string `json:"error"`
		Field string `json:"field"`
	}
	if json.Unmarshal(raw, &envelope) == nil && envelope.Error != "" {
		ae.Message = envelope.Error
		ae.Field = envelope.Field
	} else {
		ae.Message = strings.TrimSpace(string(raw))
	}
	return ae
}

// Submit enqueues a campaign and returns its accepted status (202).
func (c *Client) Submit(ctx context.Context, spec server.CampaignSpec) (server.CampaignStatus, error) {
	var st server.CampaignStatus
	err := c.do(ctx, http.MethodPost, "/v1/campaigns", spec, &st)
	return st, err
}

// SubmitWait submits a campaign with ?wait=1: the call blocks until the
// campaign reaches a terminal state and returns the full status
// (results included when done). Cancelling ctx disconnects, which the
// server treats as a request to cancel the job.
//
// A 429 queue-full rejection is retried under the client's RetryPolicy
// with jittered waits honoring the server's Retry-After hint, so a
// saturated server applies backpressure instead of failing the caller;
// other errors — and 429s once attempts run out — are returned as-is.
// Cancelling ctx aborts a pending wait immediately with ctx's error.
func (c *Client) SubmitWait(ctx context.Context, spec server.CampaignSpec) (server.CampaignStatus, error) {
	return submitWait[server.CampaignStatus](ctx, c, "/v1/campaigns", spec)
}

// submitWait posts spec to path with ?wait=1, retrying 429 queue-full
// rejections under the client's RetryPolicy (SubmitWait's doc).
func submitWait[S any](ctx context.Context, c *Client, path string, spec any) (S, error) {
	for attempt := 1; ; attempt++ {
		var st S
		err := c.do(ctx, http.MethodPost, path+"?wait=1", spec, &st)
		if err == nil || !IsQueueFull(err) || attempt >= c.retry.MaxAttempts {
			return st, err
		}
		var ae *APIError
		delay := c.retry.BaseDelay << (attempt - 1)
		if errors.As(err, &ae) && ae.RetryAfter > 0 {
			delay = ae.RetryAfter
		}
		if delay > c.retry.MaxDelay {
			delay = c.retry.MaxDelay
		}
		// Full jitter over [delay/2, delay] de-synchronizes a fleet of
		// retrying clients hammering one queue.
		delay = delay/2 + time.Duration(rand.Int64N(int64(delay/2)+1))
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(delay):
		}
	}
}

// Campaign fetches one campaign's status; withResults includes the
// per-pair characteristics once the campaign is done.
func (c *Client) Campaign(ctx context.Context, id string, withResults bool) (server.CampaignStatus, error) {
	path := "/v1/campaigns/" + url.PathEscape(id)
	if !withResults {
		path += "?results=0"
	}
	var st server.CampaignStatus
	err := c.do(ctx, http.MethodGet, path, nil, &st)
	return st, err
}

// List fetches every campaign's status in submission order.
func (c *Client) List(ctx context.Context) ([]server.CampaignStatus, error) {
	var out []server.CampaignStatus
	err := c.do(ctx, http.MethodGet, "/v1/campaigns", nil, &out)
	return out, err
}

// Cancel requests cancellation of a queued or running campaign and
// returns the status snapshot taken at acceptance.
func (c *Client) Cancel(ctx context.Context, id string) (server.CampaignStatus, error) {
	var st server.CampaignStatus
	err := c.do(ctx, http.MethodDelete, "/v1/campaigns/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Wait polls until the campaign reaches a terminal status and returns
// it with results. The poll interval is fixed and small; use SubmitWait
// or Events when latency matters.
func (c *Client) Wait(ctx context.Context, id string) (server.CampaignStatus, error) {
	return poll(ctx, func() (server.CampaignStatus, string, error) {
		st, err := c.Campaign(ctx, id, true)
		return st, st.Status, err
	})
}

// poll calls get, which fetches a job's status and its status string,
// every 10ms until the job is terminal.
func poll[S any](ctx context.Context, get func() (S, string, error)) (S, error) {
	for {
		st, status, err := get()
		if err != nil {
			return st, err
		}
		switch status {
		case server.StatusDone, server.StatusFailed, server.StatusCancelled:
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Event is one server-sent event from a campaign's /events stream.
type Event struct {
	// Name is the event type: "status", "progress" or "done".
	Name string
	// Data is the raw JSON payload (a CampaignStatus for status/done,
	// a ProgressStatus for progress).
	Data []byte
}

// Progress decodes the event payload as a progress snapshot.
func (e Event) Progress() (server.ProgressStatus, error) {
	var p server.ProgressStatus
	err := json.Unmarshal(e.Data, &p)
	return p, err
}

// Status decodes the event payload as a campaign status.
func (e Event) Status() (server.CampaignStatus, error) {
	var st server.CampaignStatus
	err := st.UnmarshalJSON(e.Data)
	return st, err
}

// SSE scanner sizing: lines start from a 1 MiB buffer and may grow to
// maxEventLine. The default bufio.Scanner limit (64 KiB) is far too
// small for a large campaign's status payloads — a "done" event for a
// full-suite campaign carries every pair's result in one data line.
const (
	initialEventBuf = 1 << 20
	maxEventLine    = 16 << 20
)

// ErrEventTooLarge reports that an SSE line exceeded the client's
// maxEventLine limit. It is returned (wrapped) by Events instead of
// the bare bufio.ErrTooLong so callers can distinguish a too-large
// event from a transport failure with errors.Is.
var ErrEventTooLarge = fmt.Errorf("client: SSE event exceeds the %d MiB line limit", maxEventLine>>20)

// Events streams the campaign's SSE feed, invoking fn for each event
// until the stream ends (the server closes it after the "done" event),
// fn returns a non-nil error, or ctx is cancelled. Returns nil on a
// normally closed stream and fn's error when fn stopped it. An event
// line larger than the 16 MiB scanner limit surfaces as
// ErrEventTooLarge rather than silently truncating the stream.
func (c *Client) Events(ctx context.Context, id string, fn func(Event) error) error {
	return c.events(ctx, "/v1/campaigns/"+url.PathEscape(id)+"/events", id, fn)
}

func (c *Client) events(ctx context.Context, path, id string, fn func(Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, initialEventBuf), maxEventLine)
	var ev Event
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.Name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.Data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if ev.Name != "" || len(ev.Data) > 0 {
				if err := fn(ev); err != nil {
					return err
				}
				ev = Event{}
			}
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return fmt.Errorf("job %s events: %w", id, ErrEventTooLarge)
		}
		return err
	}
	return nil
}

// Manifest fetches a campaign's JSONL run manifest and the digest the
// server advertises for it.
func (c *Client) Manifest(ctx context.Context, id string) (manifest []byte, digest string, err error) {
	return c.manifest(ctx, "/v1/campaigns/"+url.PathEscape(id)+"/manifest")
}

func (c *Client) manifest(ctx context.Context, path string) (manifest []byte, digest string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, "", decodeError(resp)
	}
	manifest, err = io.ReadAll(resp.Body)
	return manifest, resp.Header.Get("X-Manifest-Digest"), err
}

// --- Sweeps -----------------------------------------------------------

// SubmitSweep enqueues a design-space sweep and returns its accepted
// status (202).
func (c *Client) SubmitSweep(ctx context.Context, spec server.SweepSpec) (server.SweepStatus, error) {
	var st server.SweepStatus
	err := c.do(ctx, http.MethodPost, "/v1/sweeps", spec, &st)
	return st, err
}

// SubmitSweepWait submits a sweep with ?wait=1, blocking until it
// reaches a terminal state. 429 queue-full rejections retry under the
// client's RetryPolicy exactly as SubmitWait's do.
func (c *Client) SubmitSweepWait(ctx context.Context, spec server.SweepSpec) (server.SweepStatus, error) {
	return submitWait[server.SweepStatus](ctx, c, "/v1/sweeps", spec)
}

// Sweep fetches one sweep's status; withResult includes the grid and
// knee reports once the sweep is done.
func (c *Client) Sweep(ctx context.Context, id string, withResult bool) (server.SweepStatus, error) {
	path := "/v1/sweeps/" + url.PathEscape(id)
	if !withResult {
		path += "?results=0"
	}
	var st server.SweepStatus
	err := c.do(ctx, http.MethodGet, path, nil, &st)
	return st, err
}

// Sweeps fetches every sweep's status in submission order.
func (c *Client) Sweeps(ctx context.Context) ([]server.SweepStatus, error) {
	var out []server.SweepStatus
	err := c.do(ctx, http.MethodGet, "/v1/sweeps", nil, &out)
	return out, err
}

// CancelSweep requests cancellation of a queued or running sweep.
func (c *Client) CancelSweep(ctx context.Context, id string) (server.SweepStatus, error) {
	var st server.SweepStatus
	err := c.do(ctx, http.MethodDelete, "/v1/sweeps/"+url.PathEscape(id), nil, &st)
	return st, err
}

// WaitSweep polls until the sweep reaches a terminal status and returns
// it with the result.
func (c *Client) WaitSweep(ctx context.Context, id string) (server.SweepStatus, error) {
	return poll(ctx, func() (server.SweepStatus, string, error) {
		st, err := c.Sweep(ctx, id, true)
		return st, st.Status, err
	})
}

// SweepStatus decodes the event payload as a sweep status.
func (e Event) SweepStatus() (server.SweepStatus, error) {
	var st server.SweepStatus
	err := json.Unmarshal(e.Data, &st)
	return st, err
}

// SweepProgress decodes the event payload as a sweep progress snapshot.
func (e Event) SweepProgress() (sweep.Progress, error) {
	var p sweep.Progress
	err := json.Unmarshal(e.Data, &p)
	return p, err
}

// SweepEvents streams the sweep's SSE feed with Events' semantics:
// status, progress (sweep.Progress payloads), then done.
func (c *Client) SweepEvents(ctx context.Context, id string, fn func(Event) error) error {
	return c.events(ctx, "/v1/sweeps/"+url.PathEscape(id)+"/events", id, fn)
}

// SweepManifest fetches a sweep's JSONL run manifest and its digest.
func (c *Client) SweepManifest(ctx context.Context, id string) (manifest []byte, digest string, err error) {
	return c.manifest(ctx, "/v1/sweeps/"+url.PathEscape(id)+"/manifest")
}

// Health reports whether the server is accepting work (false while
// draining).
func (c *Client) Health(ctx context.Context) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return false, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK, nil
}

// Metrics fetches the Prometheus text exposition from /metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}
