package main

import (
	"context"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/profile"
)

// scenario-cold runs a cold mini-suite, in seeded order, under the three
// scenario kernels no other workload reaches: intra-pair parallelism
// (pairwindows=2, machine.RunParallel), rate mode (two copies on a shared
// L3, machine.RunShared) and a 1P1E topology under random placement
// (machine.RunShared once per core class).
func init() {
	register(workload{name: "scenario-cold", iterate: true, setupReps: coldSetupReps, prepare: prepareScenario})
}

// scenarioApps are the applications whose first ref pair makes up the
// mini-suite.
var scenarioApps = []string{
	"500.perlbench_r", "505.mcf_r", "531.deepsjeng_r", "557.xz_r",
	"503.bwaves_r", "519.lbm_r", "544.nab_r", "554.roms_r",
}

type scenarioState struct {
	pairs []profile.Pair
	n     uint64
	tiers *tiers
}

func prepareScenario(_ context.Context, e *env, _ *tracer) (state, error) {
	apps, n := scenarioApps, uint64(300000)
	if e.smoke {
		// Two minimum-length windows, so the smoke still splits pairs.
		apps, n = apps[:2], 70000
	}
	pairs, err := onePerApp(rng(e.seed, 3), apps)
	if err != nil {
		return nil, err
	}
	t, err := newTiers(e.dir)
	if err != nil {
		return nil, err
	}
	return &scenarioState{pairs: pairs, n: n, tiers: t}, nil
}

func (s *scenarioState) close() error { return s.tiers.close() }

func (s *scenarioState) run(ctx context.Context, tr *tracer) (outcome, error) {
	if tr != nil {
		tr.startPass()
	}
	c := newCampaigner(tr, s.tiers)
	topo, err := machine.ParseTopology("1P1E-random")
	if err != nil {
		return outcome{}, err
	}
	// One pair worker throughout: eight pairs of unequal cost on two
	// workers finish in a makespan that depends on which worker frees up
	// first. Only RunParallel's two windows run concurrently.
	base := core.Options{Instructions: s.n, Parallelism: 1}
	scenarios := []struct {
		name string
		opt  core.Options
	}{
		{"pairwindows=2", core.Scenario{IntraPairWorkers: procs}.Apply(base)},
		{"rate=2", core.Scenario{RateCopies: 2}.Apply(base)},
		{"topo=1P1E-random", core.Scenario{Topology: topo}.Apply(base)},
	}
	root := tr.begin("scenario-cold", at{req: "scenario-cold"})
	cells := map[string]core.Characteristics{}
	for _, sc := range scenarios {
		chars, err := c.characterize(ctx, s.pairs, sc.opt, root.under())
		if err != nil {
			return outcome{}, err
		}
		addCells(cells, sc.name+"/", chars)
	}
	root.end()
	digest, err := cellDigest(cells)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{results: len(cells), attempted: len(cells), digest: digest}
	if tr != nil {
		tasks := tr.taskTime()
		set := map[string]float64{"sched.wait_s": c.workerTime - tasks}
		c.traceCounts(set)
		out.layers = tr.layers(tasks, set)
	}
	return out, nil
}
