package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/server"
)

// serve-warm serves campaigns from an in-process specserved on
// 127.0.0.1, configured like cmd/specserved: a memory cache over a
// persistent store that set-up pre-populated, with the memory tier empty
// when timing starts. The timed phase is an open loop of seeded
// submissions at one fixed rate below capacity — a small fixed share
// carries a unique instruction window, so those campaigns simulate and
// the rest queue behind them — then a closed loop of two clients for
// throughput. Every served result is compared byte for byte with the
// direct library result computed in set-up.
//
// The process runs on one P (GOMAXPROCS 1): server, clients and HTTP
// stack hand every request from goroutine to goroutine, and spread over
// two Ps that traffic made the closed-loop rate track how much of the
// shared host's second CPU was free — it moved 1.4x between runs minutes
// apart, against 1.1x on one P.
func init() {
	register(workload{name: "serve-warm", setupReps: 2, maxprocs: 1, prepare: prepareServe})
}

const (
	// serveWindow is the instruction window of the served pairs.
	serveWindow = 30000
	// serveRate is the open loop's submission rate in campaigns per
	// second: well below the capacity of two server workers on two
	// cores, and high enough for over ten samples beyond p99.
	serveRate = 150
	// servePairs is how many pairs one open-loop campaign names.
	servePairs = 8
	// closedPairs is how many pairs one closed-loop campaign names (a
	// whole mini-suite and size where that has fewer): fewer, larger
	// campaigns keep the server's retained heap smaller per pair.
	closedPairs = 24
	// uniqueEvery puts one unique-window campaign, at a seeded position,
	// in every block of uniqueEvery open-loop submissions.
	uniqueEvery = 40
	// uniquePairs is how many pairs a unique-window campaign names.
	uniquePairs = 2
	// closedPerSecond sizes the closed loop: campaigns per second of its
	// share of --seconds, below what one P serves. The count is
	// fixed rather than the duration because the server keeps every
	// campaign it served: its heap, and with it the GC's share of the
	// work and the peak RSS, grows with the count served.
	closedPerSecond = 250
	// closedSegments splits the closed loop into equal segments;
	// results_per_s is the median segment's rate, so a momentary stall
	// on the host moves one segment, not the metric.
	closedSegments = 20
	// openShare is the share of --seconds given to the open loop; the
	// closed loop, whose rate is the noisier figure, gets the rest.
	openShare = 0.3
)

// request is one planned campaign submission.
type request struct {
	spec server.CampaignSpec
	// want holds the expected codec encoding of each result, in order.
	want [][]byte
}

type serveState struct {
	tr        *tracer
	tiers     *tiers
	srv       *server.Server
	httpSrv   *http.Server
	served    chan error
	transport *http.Transport
	cl        *client.Client
	open      []request
	closed    []request
	storeAt   struct{ hits, misses, corrupt, writes uint64 }
}

func prepareServe(ctx context.Context, e *env, tr *tracer) (state, error) {
	window := uint64(serveWindow)
	seconds := e.seconds
	if e.smoke {
		window, seconds = 3000, 2
	}
	t, err := newTiers(e.dir)
	if err != nil {
		return nil, err
	}
	s := &serveState{tr: tr, tiers: t}
	if err := s.plan(e.seed, window, seconds); err != nil {
		s.tiers.close()
		return nil, err
	}
	if err := s.start(ctx); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// plan pre-populates the store with every CPU2017 pair at window through
// the library — these are the direct results served bytes are checked
// against — and draws the seeded request plan.
func (s *serveState) plan(seed, window uint64, seconds float64) error {
	type group struct {
		mini, size string
		pairs      []profile.Pair
	}
	var groups []group
	var all []profile.Pair
	minis := []struct {
		name  string
		suite profile.Suite
	}{{"rate-int", profile.RateInt}, {"rate-fp", profile.RateFP}, {"speed-int", profile.SpeedInt}, {"speed-fp", profile.SpeedFP}}
	for _, m := range minis {
		var apps []*profile.Profile
		for _, app := range profile.CPU2017() {
			if app.Suite == m.suite {
				apps = append(apps, app)
			}
		}
		for _, size := range []profile.InputSize{profile.Test, profile.Train, profile.Ref} {
			pairs := profile.ExpandSuite(apps, size)
			groups = append(groups, group{m.name, size.String(), pairs})
			all = append(all, pairs...)
		}
	}
	direct, err := core.Characterize(all, core.Options{
		Instructions: window, Parallelism: procs, Cache: sched.NewCache(), Store: s.tiers.store,
	})
	if err != nil {
		return fmt.Errorf("pre-populating the store: %w", err)
	}
	want := make(map[string][]byte, len(direct))
	var codec core.CharacteristicsCodec
	for _, c := range direct {
		data, err := codec.Encode(c)
		if err != nil {
			return err
		}
		want[c.Pair.Size.String()+"/"+c.Pair.Name()] = data
	}

	r := rng(seed, 4)
	draw := func(k int) (group, []profile.Pair) {
		g := groups[r.IntN(len(groups))]
		picked := append([]profile.Pair(nil), g.pairs...)
		r.Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
		return g, picked[:min(k, len(picked))]
	}
	warm := func(k int) request {
		g, pairs := draw(k)
		req := request{spec: server.CampaignSpec{Suite: "cpu2017", Mini: g.mini, Size: g.size, Instructions: window}}
		for _, p := range pairs {
			req.spec.Pairs = append(req.spec.Pairs, p.Name())
			req.want = append(req.want, want[g.size+"/"+p.Name()])
		}
		return req
	}
	nOpen := max(int(serveRate*openShare*seconds), 1)
	nClosed := max(int(closedPerSecond*(1-openShare)*seconds)/(procs*closedSegments), 1) * procs * closedSegments
	unique, slot := 0, 0
	for i := 0; i < nOpen; i++ {
		if i%uniqueEvery == 0 {
			slot = i + r.IntN(uniqueEvery)
		}
		if i == slot {
			unique++
			g, pairs := draw(uniquePairs)
			n := window + uint64(unique)
			req := request{spec: server.CampaignSpec{Suite: "cpu2017", Mini: g.mini, Size: g.size, Instructions: n}}
			chars, err := core.Characterize(pairs, core.Options{Instructions: n, Parallelism: procs})
			if err != nil {
				return err
			}
			for i, p := range pairs {
				req.spec.Pairs = append(req.spec.Pairs, p.Name())
				data, err := codec.Encode(chars[i])
				if err != nil {
					return err
				}
				req.want = append(req.want, data)
			}
			s.open = append(s.open, req)
			continue
		}
		s.open = append(s.open, warm(servePairs))
	}
	for i := 0; i < nClosed; i++ {
		s.closed = append(s.closed, warm(closedPairs))
	}
	return nil
}

// start boots the server, configured like cmd/specserved, and its
// client. Traced passes attach the store through timing wrappers.
func (s *serveState) start(ctx context.Context) error {
	opt := core.Options{Parallelism: procs, Cache: s.tiers.cache, Store: s.tiers.store}
	if s.tr != nil {
		b := &timedBackend{tr: s.tr, inner: s.tiers.store}
		b.under(at{req: "server"})
		opt.Cache.SetBackend(b, timedCodec{b: b, inner: core.CharacteristicsCodec{}})
		opt.Store = nil
	}
	s.srv = server.New(server.Config{Workers: procs, QueueDepth: 4 * procs, Characterize: opt})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.httpSrv = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	s.transport = &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs}
	s.cl = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(&http.Client{Transport: s.transport}))
	if ok, err := s.cl.Health(ctx); err != nil || !ok {
		return fmt.Errorf("server not healthy: %v", err)
	}
	st := s.tiers.store.Stats()
	s.storeAt.hits, s.storeAt.misses, s.storeAt.corrupt, s.storeAt.writes = st.Hits, st.Misses, st.Corrupt, st.Writes
	return nil
}

func (s *serveState) close() error {
	var errs []error
	if s.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		errs = append(errs, s.httpSrv.Shutdown(ctx))
		cancel()
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if s.srv != nil {
		s.srv.Drain()
	}
	if s.transport != nil {
		s.transport.CloseIdleConnections()
	}
	errs = append(errs, s.tiers.close())
	return errors.Join(errs...)
}

// served is one completed submission.
type served struct {
	latency           time.Duration
	queue, run, httpT time.Duration
	pairs             int
	bad               bool
}

// submit sends one campaign, times it and checks every result byte for
// byte against its direct library result.
func (s *serveState) submit(ctx context.Context, req request, due time.Time, id string) served {
	sent := time.Now()
	st, err := s.cl.SubmitWait(ctx, req.spec)
	done := time.Now()
	out := served{latency: done.Sub(due)}
	if err != nil || st.Status != server.StatusDone || len(st.Results) != len(req.want) || st.Started == nil || st.Finished == nil {
		out.bad = true
		return out
	}
	var codec core.CharacteristicsCodec
	for i, c := range st.Results {
		data, err := codec.Encode(c)
		if err != nil || !bytes.Equal(data, req.want[i]) {
			out.bad = true
		}
	}
	out.pairs = len(st.Results)
	out.queue = st.Started.Sub(st.Created)
	out.run = st.Finished.Sub(*st.Started)
	out.httpT = done.Sub(sent) - st.Finished.Sub(st.Created)
	if s.tr != nil {
		sp := s.tr.record("loadgen.request", at{req: id}, sent, done.Sub(sent), map[string]any{"pairs": out.pairs})
		s.tr.record("server.queue", at{req: id, parent: sp}, st.Created, out.queue, nil)
		s.tr.record("server.run", at{req: id, parent: sp}, *st.Started, out.run, nil)
	}
	return out
}

func (s *serveState) run(ctx context.Context, tr *tracer) (outcome, error) {
	if tr != nil {
		tr.startPass()
	}
	// Open loop: a generator releases each request when it is due to
	// client workers holding the two connections; latency counts from
	// the due time, so a stall shows on every request behind it.
	ready := make(chan int, len(s.open)) // sized to the number of sends
	results := make([]served, len(s.open))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				due := start.Add(time.Duration(float64(i) / serveRate * float64(time.Second)))
				results[i] = s.submit(ctx, s.open[i], due, fmt.Sprintf("open/%d", i))
			}
		}()
	}
	late := make([]float64, len(s.open))
	for i := range s.open {
		due := start.Add(time.Duration(float64(i) / serveRate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(due).Seconds()
		ready <- i
	}
	close(ready)
	wg.Wait()

	// Closed loop: two clients, each submitting its next campaign when
	// the previous one returns, in equal segments, each timed against
	// the calibrations taken just before and after it. wall_s is the
	// closed loop's duration at reference speed, since the open loop
	// runs on a fixed schedule.
	closedRes := make([]served, len(s.closed))
	seg := len(s.closed) / closedSegments
	var rates []float64
	var wallS float64
	before := calibration()
	for lo := 0; lo < len(s.closed); lo += seg {
		segStart := time.Now()
		for w := 0; w < procs; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := lo + w; i < lo+seg; i += procs {
					closedRes[i] = s.submit(ctx, s.closed[i], time.Now(), fmt.Sprintf("closed/%d", i))
				}
			}(w)
		}
		wg.Wait()
		pairs := 0
		for _, r := range closedRes[lo : lo+seg] {
			pairs += r.pairs
		}
		took := time.Since(segStart).Seconds()
		after := calibration()
		ref := took * calRefS / ((before + after) / 2)
		before = after
		wallS += ref
		rates = append(rates, float64(pairs)/ref)
	}

	out := outcome{attempted: len(s.open) + len(s.closed), extra: map[string]float64{}, samples: map[string]int{}}
	var lat []float64
	var queue, runT, httpT float64
	for i, r := range append(results, closedRes...) {
		if r.bad {
			out.failed++
		}
		out.results += r.pairs
		if i < len(results) {
			lat = append(lat, r.latency.Seconds())
		}
		queue += r.queue.Seconds()
		runT += r.run.Seconds()
		httpT += r.httpT.Seconds()
	}
	out.wallS = wallS
	out.ratePerS = median(rates)
	out.samples["results_per_s"] = len(rates)
	out.extra["req_p50_s"] = quantile(lat, 0.50)
	out.extra["req_p99_s"] = quantile(lat, 0.99)
	out.extra["loadgen.late_p99_s"] = quantile(late, 0.99)
	out.samples["req_p50_s"] = len(lat)
	out.samples["req_p99_s"] = len(lat)
	out.samples["loadgen.late_p99_s"] = len(late)
	if tr != nil {
		st := s.tiers.store.Stats()
		set := map[string]float64{
			"server.queue_wait_s": queue,
			"server.run_s":        runT,
			"server.http_s":       httpT,
			"loadgen.late_p99_s":  out.extra["loadgen.late_p99_s"],
			"store.hits":          float64(st.Hits - s.storeAt.hits),
			"store.misses":        float64(st.Misses - s.storeAt.misses),
			"store.corrupt":       float64(st.Corrupt - s.storeAt.corrupt),
			"store.writes":        float64(st.Writes - s.storeAt.writes),
			"sched.hit_ratio":     s.tiers.cache.Stats().HitRate(),
		}
		out.layers = tr.layers(runT, set)
	}
	return out, nil
}
