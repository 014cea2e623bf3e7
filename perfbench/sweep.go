package main

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/sweep"
)

// sweep-screen is a cold design-space sweep: a fixed pair set, in seeded
// order, over a 36-point machine grid (L3 size x L3 ways x L2 ways),
// every point screened at the analytic tier and the L3-miss-rate Pareto
// frontier escalated to the sampled tier. The window is four default
// sampling periods, so the sampled tier really samples (below two
// periods it silently runs exact).
func init() {
	register(workload{name: "sweep-screen", iterate: true, setupReps: coldSetupReps, prepare: prepareSweep})
}

// sweepApps are the applications whose first ref pair the sweep runs:
// int and fp.
var sweepApps = []string{"505.mcf_r", "519.lbm_r", "531.deepsjeng_r", "538.imagick_r", "541.leela_r", "554.roms_r"}

type sweepState struct {
	spec  sweep.Spec
	n     uint64
	tiers *tiers
}

func prepareSweep(_ context.Context, e *env, _ *tracer) (state, error) {
	apps, n := sweepApps, uint64(4*machine.DefaultSampling().Period)
	axes := []sweep.Axis{
		{Param: "l3.size", Values: []int64{512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20}},
		{Param: "l3.ways", Values: []int64{4, 8, 16}},
		{Param: "l2.ways", Values: []int64{4, 8}},
	}
	if e.smoke {
		apps, n = apps[:2], 2*machine.DefaultSampling().Period
		axes = axes[:1]
	}
	pairs, err := onePerApp(rng(e.seed, 2), apps)
	if err != nil {
		return nil, err
	}
	t, err := newTiers(e.dir)
	if err != nil {
		return nil, err
	}
	return &sweepState{
		spec: sweep.Spec{
			Axes: axes, Pairs: pairs,
			Screen: machine.FidelityAnalytic, Escalate: machine.FidelitySampled,
			// One metric whose frontier the grid fixes (one point per
			// L3 size): the escalated work is the same for every seed.
			Metrics: []string{"l3_miss_pct"},
		},
		n: n, tiers: t,
	}, nil
}

func (s *sweepState) close() error { return s.tiers.close() }

func (s *sweepState) run(ctx context.Context, tr *tracer) (outcome, error) {
	if tr != nil {
		tr.startPass()
	}
	c := newCampaigner(tr, s.tiers)
	root := tr.begin("sweep.run", at{req: "sweep-screen"})
	var (
		mu    sync.Mutex
		cells = map[string]core.Characteristics{}
	)
	runner := func(ctx context.Context, pairs []profile.Pair, opt core.Options) ([]core.Characteristics, error) {
		phase := "sweep.screen"
		if opt.Fidelity != s.spec.Screen {
			phase = "sweep.escalate"
		}
		sp := tr.begin(phase, root.under())
		chars, err := c.characterize(ctx, pairs, opt, sp.under())
		sp.end()
		if err == nil {
			mu.Lock()
			addCells(cells, opt.Machine.Name+"/"+opt.Fidelity.String()+"/", chars)
			mu.Unlock()
		}
		return chars, err
	}
	res, err := sweep.Run(ctx, s.spec, sweep.Options{
		// One pair worker: the engine runs points one after another, each
		// a six-pair campaign, and two workers would leave every point's
		// makespan to which worker frees up first.
		Base: c.options(core.Options{Instructions: s.n, Parallelism: 1}),
		Run:  runner,
	})
	root.end()
	if err != nil {
		return outcome{}, err
	}
	if len(res.Knees) == 0 || res.Cells != len(cells) {
		return outcome{}, fmt.Errorf("sweep reported %d cells and %d knee reports, delivered %d cells", res.Cells, len(res.Knees), len(cells))
	}
	digest, err := cellDigest(cells)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{results: res.Cells, attempted: res.Cells, digest: digest}
	if tr != nil {
		total, self := tr.passTimes()
		tasks := tr.taskTime()
		escalated := 0
		for _, p := range res.Points {
			if p.Escalated != nil {
				escalated++
			}
		}
		set := map[string]float64{
			"sched.wait_s":          c.workerTime - tasks,
			"sweep.screen_s":        total["sweep.screen"],
			"sweep.escalate_s":      total["sweep.escalate"],
			"sweep.cells_simulated": float64(res.Screen.Simulated + res.Escalate.Simulated),
			"sweep.frontier_ratio":  float64(escalated) / float64(len(res.Points)),
		}
		c.traceCounts(set)
		out.layers = tr.layers(tasks+self["sweep.run"], set)
	}
	return out, nil
}
