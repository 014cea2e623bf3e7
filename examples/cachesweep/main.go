// Cache sweep: run one memory-bound workload across last-level cache
// sizes and replacement policies, demonstrating why the paper separates
// microarchitecture-independent characteristics (stable below) from
// microarchitecture-dependent ones (the miss rates that move).
package main

import (
	"fmt"
	"log"

	speckit "repro"
	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/synth"
)

func main() {
	// 520.omnetpp_r: discrete-event simulation with a scattered heap —
	// the classic LLC-sensitive workload.
	var app *speckit.Workload
	for _, p := range speckit.CPU2017() {
		if p.Name == "520.omnetpp_r" {
			app = p
		}
	}
	pair := app.Expand(profile.Ref)[0]

	fmt.Println("LLC size sweep (LRU):")
	fmt.Printf("%10s %10s %10s %8s\n", "L3 size", "L3 miss%", "mem/kinstr", "IPC")
	for _, kb := range []int{512, 1024, 2048, 4096} {
		res := runWith(pair, kb<<10, "lru")
		fmt.Printf("%9dK %10.2f %10.2f %8.3f\n",
			kb, res.Counters.CacheMissPct(3),
			float64(res.Events.MemAccesses)/float64(res.Events.Instructions)*1000,
			res.IPC)
	}

	fmt.Println("\nreplacement policy sweep (512K LLC, capacity-pressured):")
	fmt.Printf("%10s %10s %8s\n", "policy", "L3 miss%", "IPC")
	for _, pol := range cache.Policies() {
		res := runWith(pair, 512<<10, pol)
		fmt.Printf("%10s %10.2f %8.3f\n", pol, res.Counters.CacheMissPct(3), res.IPC)
	}

	fmt.Println("\nmicroarchitecture-independent characteristics stay put:")
	res := runWith(pair, 2<<20, "lru")
	fmt.Printf("  %.1f%% loads, %.1f%% stores, %.1f%% branches at every configuration\n",
		res.Counters.LoadPct(), res.Counters.StorePct(), res.Counters.BranchPct())
}

// runWith simulates the pair on a machine whose L3 size and policy are
// overridden. The workload ILP is fixed from a baseline calibration so
// IPC responds to the cache configuration (an ablation, not a
// recalibration).
func runWith(pair profile.Pair, l3Bytes int, pol cache.Policy) *machine.Result {
	cfg := machine.HaswellScaled()
	cfg.Hierarchy.L3.SizeBytes = l3Bytes
	cfg.Hierarchy.L3.Policy = pol

	// Baseline calibration on the default machine fixes the ILP.
	base := machine.HaswellScaled()
	gen, err := synth.New(pair.Model, base.Geometry())
	if err != nil {
		log.Fatal(err)
	}
	baseRes, err := machine.Run(base, gen, machine.Options{
		Instructions:       150000,
		WarmupInstructions: gen.Prologue(),
		Workload:           pipeline.Workload{ILP: 2, MLP: pair.Model.MLP},
		CalibrateIPC:       pair.Model.TargetIPC,
	})
	if err != nil {
		log.Fatal(err)
	}

	gen2, err := synth.New(pair.Model, base.Geometry())
	if err != nil {
		log.Fatal(err)
	}
	res, err := machine.Run(cfg, gen2, machine.Options{
		Instructions:       150000,
		WarmupInstructions: gen2.Prologue(),
		Workload:           pipeline.Workload{ILP: baseRes.ILP, MLP: pair.Model.MLP},
	})
	if err != nil {
		log.Fatal(err)
	}
	return res
}
