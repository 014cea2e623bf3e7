// Coordinator mode: with Config.Fleet set, this server stops simulating
// locally and instead scatters each campaign's pairs across a fleet of
// worker specserved instances, gathering the partial results back into
// its own cache tiers.
//
// The scatter is by consistent hash of each pair's result-cache content
// key (core.CampaignKeys): a pair's preferred worker is stable across
// campaigns and across fleet-size changes except for the ranges a
// joining or leaving worker takes over, so repeated campaigns keep
// hitting warm worker caches. Pairs the coordinator's own memory or
// store tier already holds are served locally and never leave the
// process — only the misses travel.
//
// Everything downstream of the scatter leans on the store's idempotency
// invariant: equal content keys imply bit-identical results, so the
// dispatcher (sched.RunRemote) is free to resubmit a dead worker's
// chunks elsewhere and to speculatively duplicate stragglers. A sharded
// campaign therefore produces exactly the results — and exactly the
// store records — a single-node run of the same spec would.

package server

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sched"
)

// RemoteWorker is the coordinator's handle to one worker specserved
// instance. The canonical implementation (internal/fleet) wraps the
// typed internal/client; the indirection exists because client imports
// this package for its wire types, so the server cannot import it back.
type RemoteWorker interface {
	// Name identifies the worker in metrics and errors (e.g. its URL).
	Name() string
	// Run executes one sub-campaign to completion and returns its
	// terminal status, results included. Run must be safe to call
	// concurrently and more than once per spec: results are idempotent
	// by content key, so duplicate executions return identical bits.
	Run(ctx context.Context, spec CampaignSpec) (CampaignStatus, error)
	// Healthy probes the worker's admission health (GET /healthz).
	Healthy(ctx context.Context) bool
}

// fleetProbeTimeout bounds each pre-scatter health probe.
const fleetProbeTimeout = 2 * time.Second

// ringVnodes is the number of virtual nodes each worker projects onto
// the hash ring. 64 points per worker keeps the per-worker share of key
// space within a few percent of uniform for small fleets.
const ringVnodes = 64

// hashRing is a consistent-hash ring over worker indices. It is built
// once over the full configured fleet; lookups skip workers the caller
// marks dead, which reassigns exactly the dead workers' ranges (the
// minimal-churn property that keeps worker caches warm across
// evictions and re-admissions).
type hashRing struct {
	hashes []uint64 // sorted vnode positions
	owner  []int    // owner[i] is the worker owning hashes[i]
}

func newHashRing(workers int) *hashRing {
	r := &hashRing{
		hashes: make([]uint64, 0, workers*ringVnodes),
		owner:  make([]int, 0, workers*ringVnodes),
	}
	type point struct {
		h uint64
		w int
	}
	points := make([]point, 0, workers*ringVnodes)
	for w := 0; w < workers; w++ {
		for v := 0; v < ringVnodes; v++ {
			points = append(points, point{ringHash(fmt.Sprintf("w%d/v%d", w, v)), w})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].h != points[j].h {
			return points[i].h < points[j].h
		}
		return points[i].w < points[j].w // deterministic on (vanishingly rare) collisions
	})
	for _, p := range points {
		r.hashes = append(r.hashes, p.h)
		r.owner = append(r.owner, p.w)
	}
	return r
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// pick returns the ring owner for key among workers where alive(w)
// reports true (nil means all alive), walking clockwise from the key's
// position. Returns -1 when no worker qualifies.
func (r *hashRing) pick(key string, alive func(int) bool) int {
	n := len(r.hashes)
	if n == 0 {
		return -1
	}
	h := ringHash(key)
	i := sort.Search(n, func(i int) bool { return r.hashes[i] >= h })
	for k := 0; k < n; k++ {
		w := r.owner[(i+k)%n]
		if alive == nil || alive(w) {
			return w
		}
	}
	return -1
}

// Fleet dispatch metrics: sub-campaign outcomes per worker, and pairs
// gathered per worker.
func metFleetChunks(worker, outcome string) *obs.Counter {
	return obs.Default().Counter("speckit_fleet_chunks_total",
		"Scattered sub-campaigns by worker and outcome.",
		"worker", worker, "outcome", outcome)
}

func metFleetPairs(worker string) *obs.Counter {
	return obs.Default().Counter("speckit_fleet_pairs_total",
		"Pairs gathered from fleet workers.", "worker", worker)
}

// probeFleet health-checks every configured worker concurrently and
// returns the sorted indices of the responsive ones. Probing per
// campaign is also the re-admission path: a worker evicted during an
// earlier dispatch rejoins as soon as it answers a probe again.
func (s *Server) probeFleet(ctx context.Context) []int {
	var (
		mu    sync.Mutex
		alive []int
		wg    sync.WaitGroup
	)
	for i, w := range s.cfg.Fleet {
		wg.Add(1)
		go func(i int, w RemoteWorker) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, fleetProbeTimeout)
			defer cancel()
			ok := w.Healthy(pctx)
			s.fleetUp[i].Store(ok)
			if ok {
				mu.Lock()
				alive = append(alive, i)
				mu.Unlock()
			}
		}(i, w)
	}
	wg.Wait()
	sort.Ints(alive)
	return alive
}

// runFleet is the coordinator's campaign engine: serve what the local
// tiers hold, scatter the rest across the fleet by consistent hash of
// each pair's content key, gather and write through. It returns the
// results with each pair's content key, under which opt.Cache (never
// nil on a server: New installs one) now holds every result and its
// record. opt carries the merged per-campaign options (the caller
// applied the spec overrides); base provides the suite/size identity
// the chunk specs inherit. The id namespaces chunk names and trace
// spans — campaigns pass their job id, sweeps a per-grid-point sub-id.
func (s *Server) runFleet(ctx context.Context, id string, base CampaignSpec, pairs []profile.Pair, opt core.Options) ([]core.Characteristics, []string, error) {
	// Normalize so the machine, instruction window and sampling knob
	// forwarded in chunk specs are the exact values the content keys
	// encode.
	opt = opt.Normalized()
	keys := core.CampaignKeys(pairs, opt)

	// Mirror Characterize's cache wiring so local lookups see the store
	// tier and gathered results write through to it.
	if opt.Store != nil {
		opt.Cache.SetBackend(opt.Store, core.CharacteristicsCodec{})
	}

	span := opt.Trace.Start("fleet-campaign").
		SetAttr("pairs", len(pairs)).SetAttr("workers", len(s.cfg.Fleet))
	defer span.Finish()

	start := time.Now()
	results := make([]core.Characteristics, len(pairs))
	var (
		pmu  sync.Mutex
		prog = sched.Progress{Total: len(pairs)}
	)
	// report calls opt.Progress under pmu, as sched.Run does: progress
	// callbacks are invoked serially, and chunks finish concurrently.
	report := func() {
		pmu.Lock()
		defer pmu.Unlock()
		if opt.Progress != nil {
			p := prog
			p.Elapsed = time.Since(start)
			opt.Progress(p)
		}
	}

	// Differential serving: anything already in the coordinator's own
	// tiers never leaves the process; only the misses are scattered.
	var miss []int
	for i, k := range keys {
		if v, tier := opt.Cache.GetTier(k); tier != sched.TierMiss {
			results[i] = v.(core.Characteristics)
			pmu.Lock()
			prog.Done++
			prog.CacheHits++
			if tier == sched.TierStore {
				prog.StoreHits++
			}
			pmu.Unlock()
		} else {
			miss = append(miss, i)
		}
	}
	report()
	span.SetAttr("served_locally", len(pairs)-len(miss))
	if len(miss) == 0 {
		return results, keys, nil
	}

	// Probe the fleet: dead workers lose their ring ranges for this
	// campaign, recovered ones re-admit themselves.
	alive := s.probeFleet(ctx)
	if len(alive) == 0 {
		return nil, nil, fmt.Errorf("no healthy fleet worker among %d configured", len(s.cfg.Fleet))
	}
	aliveSet := make(map[int]bool, len(alive))
	dispatchOf := make(map[int]int, len(alive)) // fleet index -> dispatch index
	for d, f := range alive {
		aliveSet[f] = true
		dispatchOf[f] = d
	}

	// Group misses by ring owner (pair order preserved within an owner),
	// then cut each owner's run into chunks of at most FleetChunk pairs.
	ring := newHashRing(len(s.cfg.Fleet))
	owned := make(map[int][]int)
	for _, i := range miss {
		o := ring.pick(keys[i], func(w int) bool { return aliveSet[w] })
		owned[o] = append(owned[o], i)
	}
	owners := make([]int, 0, len(owned))
	for o := range owned {
		owners = append(owners, o)
	}
	sort.Ints(owners)
	type chunk struct {
		idx   []int // indices into pairs/keys/results
		owner int   // fleet index
	}
	var chunks []chunk
	for _, o := range owners {
		list := owned[o]
		for lo := 0; lo < len(list); lo += s.cfg.FleetChunk {
			hi := min(lo+s.cfg.FleetChunk, len(list))
			chunks = append(chunks, chunk{idx: list[lo:hi], owner: o})
		}
	}

	// The chunk specs carry the merged machine, window, multiplexing
	// and scenario values explicitly so worker-side content keys match
	// the coordinator's; a worker's base options fill only the scenario
	// knobs left at their defaults, which specserved never sets. The
	// machine travels in its fingerprint-stable JSON form —
	// this is what lets a sweep scatter per-grid-point configurations.
	chunkMachine := opt.Machine
	tasks := make([]sched.RemoteTask[[]core.Characteristics], len(chunks))
	for t, ch := range chunks {
		names := make([]string, len(ch.idx))
		for j, i := range ch.idx {
			names[j] = pairs[i].Name()
		}
		spec := CampaignSpec{
			Suite:          base.Suite,
			Size:           base.Size,
			Pairs:          names,
			Instructions:   opt.Instructions,
			MultiplexSlots: opt.MultiplexSlots,
			Machine:        &chunkMachine,
			// The scenario travels in its canonical string, which parses
			// back to the same normalized scenario (FuzzParseScenario),
			// so worker-side keys — and therefore store records — match
			// the coordinator's bit for bit.
			Scenario: opt.Scenario.String(),
		}
		name := fmt.Sprintf("%s/chunk%d", id, t)
		tasks[t] = sched.RemoteTask[[]core.Characteristics]{
			Name:     name,
			Affinity: dispatchOf[ch.owner],
			Run: func(ctx context.Context, d int) ([]core.Characteristics, error) {
				w := s.cfg.Fleet[alive[d]]
				cs := span.Child(name).SetAttr("worker", w.Name()).SetAttr("pairs", len(names))
				defer cs.Finish()
				st, err := w.Run(ctx, spec)
				if err != nil {
					metFleetChunks(w.Name(), "error").Inc()
					cs.SetAttr("error", err.Error())
					return nil, fmt.Errorf("worker %s: %w", w.Name(), err)
				}
				if st.Status != StatusDone {
					metFleetChunks(w.Name(), "error").Inc()
					cs.SetAttr("error", st.Status)
					return nil, fmt.Errorf("worker %s: sub-campaign %s ended %s: %s",
						w.Name(), st.ID, st.Status, st.Error)
				}
				if len(st.Results) != len(names) {
					metFleetChunks(w.Name(), "error").Inc()
					return nil, fmt.Errorf("worker %s: sub-campaign %s returned %d results for %d pairs",
						w.Name(), st.ID, len(st.Results), len(names))
				}
				metFleetChunks(w.Name(), "ok").Inc()
				metFleetPairs(w.Name()).Add(uint64(len(names)))
				return st.Results, nil
			},
		}
	}

	_, err := sched.RunRemote(ctx, len(alive), tasks, sched.RemoteOptions[[]core.Characteristics]{
		MaxAttempts: 3,
		EvictAfter:  2,
		Speculate:   true,
		TaskDone: func(t int, res []core.Characteristics) {
			// First completed attempt per chunk: record, write through to
			// the coordinator's tiers (so the store ends up with exactly
			// the records a single-node run would have written), account.
			for j, i := range chunks[t].idx {
				results[i] = res[j]
				opt.Cache.Put(keys[i], res[j])
			}
			pmu.Lock()
			prog.Done += len(chunks[t].idx)
			prog.Remote += len(chunks[t].idx)
			pmu.Unlock()
			report()
		},
		OnRetry: func(task string, d int, err error) {
			metFleetChunks(s.cfg.Fleet[alive[d]].Name(), "retry").Inc()
		},
		OnEvict: func(d int, err error) {
			f := alive[d]
			s.fleetUp[f].Store(false)
			metFleetChunks(s.cfg.Fleet[f].Name(), "evict").Inc()
		},
	})
	if err != nil {
		return nil, nil, err
	}
	return results, keys, nil
}
