package machine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/synth"
	"repro/internal/trace"
)

// feedSource is a generator whose stream ends after left records and
// which cancels a context once it has passed cancelAt records (never
// when cancel is nil), noting its position then in firedAt. Its
// NextBatch runs on the feed's producer goroutine, its skips on the
// driver's.
type feedSource struct {
	gen      *synth.Generator
	left     uint64
	pos      uint64
	cancelAt uint64
	cancel   context.CancelFunc
	firedAt  uint64
}

func (s *feedSource) NextBatch(buf []trace.Uop) int {
	n := s.gen.NextBatch(buf[:min(uint64(len(buf)), s.left)])
	s.left -= uint64(n)
	s.pos += uint64(n)
	if s.cancel != nil && s.pos >= s.cancelAt && s.firedAt == 0 {
		s.firedAt = s.pos
		s.cancel()
	}
	return n
}

func (s *feedSource) Next(u *trace.Uop) bool {
	var one [1]trace.Uop
	ok := s.NextBatch(one[:]) == 1
	*u = one[0]
	return ok
}

func (s *feedSource) Skip(n uint64) uint64 { return s.SkipWarm(n, nil) }

func (s *feedSource) SkipWarm(n uint64, observe func(*trace.Uop)) uint64 {
	k := s.gen.SkipWarm(min(n, s.left), observe)
	s.left -= k
	s.pos += k
	return k
}

// waitGoroutines polls until no more than base goroutines run: an
// exited producer can take a moment to leave the scheduler's count.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want at most %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFeedLifecycle drives every batched mode to a normal end, an
// exhausted source, a context cancelled while the producers are
// filling a window, and an invalid configuration. Each run must leave
// no producer goroutine behind and the wait policy's demand count
// where it found it, fail with the mode's error, and leave a fresh run
// bit-identical to the reference one. A cancelled run's producers must
// stop within a ring of the cancellation rather than generate the rest
// of their request.
func TestFeedLifecycle(t *testing.T) {
	const instr = 120000
	type src struct {
		limit    uint64 // 0 = unbounded
		cancelAt uint64 // 0 = never
	}
	type mode func(cfg Config, ctx context.Context, cancel context.CancelFunc, sc src) (any, error)
	m := testModel()
	var mu sync.Mutex
	var made []*feedSource
	mk := func(cfg Config, seed uint64, sc src, cancel context.CancelFunc) (*feedSource, uint64) {
		mm := m
		mm.Seed += seed
		gen, err := synth.New(mm, cfg.Geometry())
		if err != nil {
			t.Fatal(err)
		}
		s := &feedSource{gen: gen, left: ^uint64(0), cancelAt: sc.cancelAt}
		if sc.limit > 0 {
			s.left = sc.limit
		}
		if sc.cancelAt > 0 {
			s.cancel = cancel
		}
		mu.Lock()
		made = append(made, s)
		mu.Unlock()
		return s, gen.Prologue()
	}
	opts := func(ctx context.Context, pro uint64) Options {
		return Options{Instructions: instr, WarmupInstructions: pro, Context: ctx, BatchSize: 1000}
	}
	modes := map[string]mode{
		"exact": func(cfg Config, ctx context.Context, cancel context.CancelFunc, sc src) (any, error) {
			s, pro := mk(cfg, 0, sc, cancel)
			return Run(cfg, s, opts(ctx, pro))
		},
		"sampled": func(cfg Config, ctx context.Context, cancel context.CancelFunc, sc src) (any, error) {
			s, pro := mk(cfg, 0, sc, cancel)
			opt := opts(ctx, pro)
			opt.Sampling = Sampling{Period: 16384, DetailLen: 2048, WarmupLen: 2048}
			return Run(cfg, s, opt)
		},
		"shared": func(cfg Config, ctx context.Context, cancel context.CancelFunc, sc src) (any, error) {
			// Only the second stream is bounded or cancels, so the
			// first one's producer is mid-request when the run fails.
			s0, pro := mk(cfg, 0, src{}, cancel)
			s1, _ := mk(cfg, 1, sc, cancel)
			return RunShared(cfg, []trace.Source{s0, s1}, opts(ctx, pro))
		},
		"parallel": func(cfg Config, ctx context.Context, cancel context.CancelFunc, sc src) (any, error) {
			_, pro := mk(cfg, 0, src{}, cancel)
			newSource := func() (trace.Source, error) {
				s, _ := mk(cfg, 0, sc, cancel)
				return s, nil
			}
			res, err := RunParallel(cfg, newSource, opts(ctx, pro), 2)
			if err != nil {
				return nil, err
			}
			if res.Parallel.Workers != 2 {
				t.Fatalf("parallel run used %d workers, want 2", res.Parallel.Workers)
			}
			return stripParallel(res), nil
		},
	}
	bad := HaswellScaled()
	bad.ClockHz = 0
	cases := []struct {
		name    string
		cfg     Config
		sc      src
		wantErr func(error) bool
	}{
		{"normal", HaswellScaled(), src{}, func(err error) bool { return err == nil }},
		{"exhausted", HaswellScaled(), src{limit: 50000}, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "source exhausted during")
		}},
		{"cancelled", HaswellScaled(), src{cancelAt: 60000}, func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"invalid", bad, src{}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "clock") }},
	}
	for name, run := range modes {
		t.Run(name, func(t *testing.T) {
			base, baseDemand := runtime.NumGoroutine(), demand.Load()
			// Every run joins its producers before it returns, so the
			// count is back at once.
			checkDemand := func(after string) {
				t.Helper()
				if d := demand.Load(); d != baseDemand {
					t.Errorf("after %s: demand = %d, want %d", after, d, baseDemand)
				}
			}
			want, err := run(HaswellScaled(), context.Background(), nil, src{})
			if err != nil {
				t.Fatal(err)
			}
			checkDemand("the reference run")
			waitGoroutines(t, base)
			for _, tc := range cases {
				ctx, cancel := context.WithCancel(context.Background())
				made = nil
				_, err := run(tc.cfg, ctx, cancel, tc.sc)
				cancel()
				checkDemand(tc.name)
				if !tc.wantErr(err) {
					t.Errorf("%s: err = %v", tc.name, err)
				}
				for _, s := range made {
					if s.firedAt > 0 && s.pos-s.firedAt > uint64(ringLen(opts(nil, 0), 1)) {
						t.Errorf("%s: a producer ran %d records past the cancellation", tc.name, s.pos-s.firedAt)
					}
				}
				waitGoroutines(t, base)
				got, err := run(HaswellScaled(), context.Background(), nil, src{})
				if err != nil {
					t.Fatalf("after %s: %v", tc.name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("after %s: a fresh run differs from the reference", tc.name)
				}
				checkDemand("the run after " + tc.name)
				waitGoroutines(t, base)
			}
		})
	}
}

// TestFeedWaitPolicy pins the feed's wait decision: with one CPU a
// waiting side always parks; with more it yields only while the
// simulation goroutines that want a CPU fit on them.
func TestFeedWaitPolicy(t *testing.T) {
	for _, tc := range []struct {
		demand int64
		procs  int
		want   bool
	}{
		{0, 1, false}, {1, 1, false}, {2, 1, false},
		{1, 2, true}, {2, 2, true}, {3, 2, false}, {4, 2, false},
		{4, 4, true}, {5, 4, false},
	} {
		if got := spins(tc.demand, tc.procs); got != tc.want {
			t.Errorf("spins(demand %d, %d CPUs) = %v, want %v", tc.demand, tc.procs, got, tc.want)
		}
	}
}

// TestFeedConcurrentRuns runs two exact runs on distinct generators at
// once, each with its producer, and checks both against serial runs;
// under -race it checks the feeds share nothing.
func TestFeedConcurrentRuns(t *testing.T) {
	cfg := HaswellScaled()
	run := func(seed uint64) (*Result, error) {
		m := testModel()
		m.Seed += seed
		gen, err := synth.New(m, cfg.Geometry())
		if err != nil {
			return nil, err
		}
		return Run(cfg, gen, Options{Instructions: 100000, WarmupInstructions: gen.Prologue()})
	}
	want := make([]*Result, 2)
	for i := range want {
		var err error
		if want[i], err = run(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(uint64(i))
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("concurrent run %d differs from its serial run", i)
		}
	}
}
