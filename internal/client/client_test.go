package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// TestEventsOversizedPayload: an SSE data line bigger than the default
// bufio.Scanner limit (64 KiB) but under the client's 16 MiB cap is
// delivered intact — the regression that used to kill the stream with
// bufio.ErrTooLong.
func TestEventsOversizedPayload(t *testing.T) {
	payload := strings.Repeat("x", 256*1024) // 4x the default scanner limit
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprintf(w, "event: progress\ndata: %s\n\n", payload)
		fmt.Fprintf(w, "event: done\ndata: {}\n\n")
	}))
	defer ts.Close()

	var got []Event
	err := New(ts.URL).Events(context.Background(), "c1", func(ev Event) error {
		got = append(got, Event{Name: ev.Name, Data: append([]byte(nil), ev.Data...)})
		return nil
	})
	if err != nil {
		t.Fatalf("events with 256 KiB payload: %v", err)
	}
	if len(got) != 2 || got[0].Name != "progress" || string(got[0].Data) != payload {
		t.Fatalf("oversized event corrupted: %d events, first %q with %d bytes",
			len(got), got[0].Name, len(got[0].Data))
	}
}

// TestEventsTooLargeTyped: a line beyond the 16 MiB cap surfaces as
// ErrEventTooLarge instead of a silent drop or a bare bufio error.
func TestEventsTooLargeTyped(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		// Stream past the cap without building a 17 MiB string per write.
		w.Write([]byte("data: "))
		chunk := []byte(strings.Repeat("y", 1<<20))
		for i := 0; i <= maxEventLine>>20; i++ {
			if _, err := w.Write(chunk); err != nil {
				return // client hung up after hitting its limit
			}
		}
		w.Write([]byte("\n\n"))
	}))
	defer ts.Close()

	err := New(ts.URL).Events(context.Background(), "c1", func(ev Event) error {
		t.Errorf("callback invoked with a truncated event %q", ev.Name)
		return nil
	})
	if !errors.Is(err, ErrEventTooLarge) {
		t.Fatalf("err = %v, want ErrEventTooLarge", err)
	}
}

// TestParseRetryAfter covers both RFC 9110 forms plus the clamps.
func TestParseRetryAfter(t *testing.T) {
	httpDate := func(d time.Duration) string {
		return time.Now().Add(d).UTC().Format(http.TimeFormat)
	}
	cases := []struct {
		in       string
		min, max time.Duration
	}{
		{"", 0, 0},
		{"2", 2 * time.Second, 2 * time.Second},
		{"0", 0, 0},
		{"-5", 0, 0},                             // negative seconds clamp to 0
		{"999999", maxRetryAfter, maxRetryAfter}, // absurd seconds clamp to the cap
		{"not-a-hint", 0, 0},                     // unparseable yields no hint
		// Hints whose nanoseconds overflow int64: clamped before the
		// multiply, not wrapped to 290ms, a negative or a positive value.
		{"18446744074", maxRetryAfter, maxRetryAfter},
		{"9223372037", maxRetryAfter, maxRetryAfter},
		{"-9223372037", 0, 0},
		{httpDate(10 * time.Second), 8 * time.Second, 10 * time.Second},
		{httpDate(-time.Hour), 0, 0}, // past date means retry now
		{httpDate(48 * time.Hour), maxRetryAfter, maxRetryAfter},
	}
	for _, c := range cases {
		got := parseRetryAfter(c.in)
		if got < c.min || got > c.max {
			t.Errorf("parseRetryAfter(%q) = %v, want in [%v, %v]", c.in, got, c.min, c.max)
		}
	}
}

// TestDecodeErrorRetryAfterDate: the HTTP-date form reaches
// APIError.RetryAfter — previously it silently parsed to zero and
// defeated the 429 backoff hint.
func TestDecodeErrorRetryAfterDate(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", time.Now().Add(30*time.Second).UTC().Format(http.TimeFormat))
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"queue full"}`)
	}))
	defer ts.Close()

	_, err := New(ts.URL).Submit(context.Background(), server.CampaignSpec{Suite: "cpu2017", Size: "train"})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want 429 APIError", err)
	}
	if ae.RetryAfter < 25*time.Second || ae.RetryAfter > 30*time.Second {
		t.Errorf("RetryAfter = %v from an HTTP-date header, want ~30s", ae.RetryAfter)
	}
}

// TestFieldError: a 400 carrying a "field" member surfaces through
// APIError.Field and the FieldError helper, and the field is named in
// the rendered message; errors without one report ok=false.
func TestFieldError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"bad campaign spec: rate and topology scenarios run at exact fidelity only","field":"fidelity"}`)
	}))
	defer ts.Close()

	_, err := New(ts.URL).Submit(context.Background(), server.CampaignSpec{Suite: "cpu2017", Size: "train"})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400 APIError", err)
	}
	field, msg, ok := FieldError(err)
	if !ok || field != "fidelity" {
		t.Errorf("FieldError = (%q, %q, %v), want field %q", field, msg, ok, "fidelity")
	}
	if !strings.Contains(ae.Error(), `"fidelity"`) {
		t.Errorf("rendered error %q does not name the field", ae.Error())
	}

	if f, _, ok := FieldError(errors.New("plain")); ok || f != "" {
		t.Errorf("FieldError(plain error) = (%q, _, %v), want not-ok", f, ok)
	}
	plain := &APIError{Code: http.StatusBadRequest, Message: "no field"}
	if f, _, ok := FieldError(plain); ok || f != "" {
		t.Errorf("FieldError(fieldless APIError) = (%q, _, %v), want not-ok", f, ok)
	}
}

// submitWaits are the client's two retrying submit methods, each with
// the route it posts to and a terminal status body a server answers.
var submitWaits = []struct {
	name, path, done string
	call             func(context.Context, *Client) (status string, err error)
}{
	{
		name: "campaign", path: "/v1/campaigns",
		done: `{"id":"c000001","status":"done","pairs":1}`,
		call: func(ctx context.Context, c *Client) (string, error) {
			st, err := c.SubmitWait(ctx, server.CampaignSpec{Suite: "cpu2017", Size: "train"})
			return st.Status, err
		},
	},
	{
		name: "sweep", path: "/v1/sweeps",
		done: `{"id":"s000001","status":"done","pairs":1,"points":1}`,
		call: func(ctx context.Context, c *Client) (string, error) {
			st, err := c.SubmitSweepWait(ctx, server.SweepSpec{Suite: "cpu2017", Size: "train"})
			return st.Status, err
		},
	},
}

// queueFull answers the server's 429 queue-full rejection with the given
// Retry-After hint.
func queueFull(w http.ResponseWriter, retryAfter string) {
	w.Header().Set("Retry-After", retryAfter)
	w.WriteHeader(http.StatusTooManyRequests)
	fmt.Fprint(w, `{"error":"campaign queue is full"}`)
}

// TestSubmitWaitRetries429: SubmitWait and SubmitSweepWait keep retrying
// a queue-full server under the policy, honoring the Retry-After hint,
// and succeed once capacity frees up.
func TestSubmitWaitRetries429(t *testing.T) {
	for _, tc := range submitWaits {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != tc.path || r.URL.Query().Get("wait") != "1" {
					t.Errorf("request %s, want %s?wait=1", r.URL, tc.path)
				}
				if calls.Add(1) <= 2 {
					queueFull(w, "0") // no hint beyond "soon"
					return
				}
				fmt.Fprint(w, tc.done)
			}))
			defer ts.Close()

			c := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}))
			status, err := tc.call(context.Background(), c)
			if err != nil {
				t.Fatalf("submit through 429s: %v", err)
			}
			if status != server.StatusDone || calls.Load() != 3 {
				t.Fatalf("status %s after %d calls, want done after 3", status, calls.Load())
			}
		})
	}
}

// TestSubmitWaitRetriesExhausted: a persistently full queue still fails
// once MaxAttempts is spent, with the 429 intact for the caller.
func TestSubmitWaitRetriesExhausted(t *testing.T) {
	for _, tc := range submitWaits {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				queueFull(w, "0")
			}))
			defer ts.Close()

			c := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}))
			if _, err := tc.call(context.Background(), c); !IsQueueFull(err) {
				t.Fatalf("err = %v, want queue-full after exhausting retries", err)
			}
			if calls.Load() != 3 {
				t.Fatalf("server saw %d submissions, want exactly MaxAttempts=3", calls.Load())
			}
		})
	}
}

// TestSubmitWaitRetryRespectsContext: cancelling the context during a
// backoff wait aborts immediately with the context error.
func TestSubmitWaitRetryRespectsContext(t *testing.T) {
	for _, tc := range submitWaits {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				queueFull(w, "60") // park the client in a long wait
			}))
			defer ts.Close()

			ctx, cancel := context.WithCancel(context.Background())
			c := New(ts.URL) // default policy would wait on the 60s hint (capped at MaxDelay)
			errc := make(chan error, 1)
			go func() {
				_, err := tc.call(ctx, c)
				errc <- err
			}()
			time.Sleep(20 * time.Millisecond) // let the first 429 land and the wait start
			cancel()
			select {
			case err := <-errc:
				if !errors.Is(err, context.Canceled) && !IsQueueFull(err) {
					t.Fatalf("err = %v, want context.Canceled (or the last 429 if cancel raced)", err)
				}
				if !errors.Is(err, context.Canceled) {
					t.Log("cancel raced the first response; acceptable but unexpected")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("cancelled retry did not return")
			}
		})
	}
}
