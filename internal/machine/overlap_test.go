//go:build unix

package machine

import (
	"syscall"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/trace"
)

// overlapApps are the applications whose first ref pair each overlap
// pass runs: the mini-suite of perfbench's scenario-cold workload.
var overlapApps = []string{
	"500.perlbench_r", "505.mcf_r", "531.deepsjeng_r", "557.xz_r",
	"503.bwaves_r", "519.lbm_r", "544.nab_r", "554.roms_r",
}

// processCPU is the CPU time, user and system, the whole process has
// used so far.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkKernelOverlap measures how much of a second CPU the feed's
// producers put to work: each iteration runs the eight mini-suite pairs
// one at a time at 300k instructions (one pair worker), exactly, as two
// rate copies on a shared L3, and on the P and E classes of a 1P1E
// random topology. It reports the process's CPU time over wall time: 1
// when synthesis and simulation take turns on one CPU, near 2 when they
// overlap on two. It is report-only; at -cpu 1 it reads 1 by
// construction.
func BenchmarkKernelOverlap(b *testing.B) {
	const instr = 300000
	var pairs []profile.Pair
	for _, p := range profile.CPU2017() {
		for _, app := range overlapApps {
			if p.Name == app {
				pairs = append(pairs, p.Expand(profile.Ref)[0])
			}
		}
	}
	if len(pairs) != len(overlapApps) {
		b.Fatalf("found %d of the %d mini-suite pairs", len(pairs), len(overlapApps))
	}
	base := HaswellScaled()
	// run simulates one pair on each config, with copies streams per
	// config sharing its L3 (a single stream runs the exact Run).
	run := func(b *testing.B, pair profile.Pair, copies int, cfgs ...Config) {
		for _, cfg := range cfgs {
			var srcs []trace.Source
			var pro uint64
			for i := range copies {
				m := pair.Model
				m.Seed += uint64(i)
				gen, err := synth.New(m, cfg.Geometry())
				if err != nil {
					b.Fatal(err)
				}
				srcs, pro = append(srcs, gen), gen.Prologue()
			}
			opt := Options{
				Instructions:       instr,
				WarmupInstructions: pro,
				Workload:           pipeline.Workload{ILP: 2, MLP: pair.Model.MLP},
				CalibrateIPC:       pair.Model.TargetIPC,
			}
			var err error
			if copies == 1 && len(cfgs) == 1 {
				_, err = Run(cfg, srcs[0], opt)
			} else {
				_, err = RunShared(cfg, srcs, opt)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	cases := []struct {
		name   string
		copies int
		cfgs   []Config
	}{
		{"exact", 1, []Config{base}},
		{"rate=2", 2, []Config{base}},
		{"1P1E-random", 1, []Config{base, ECoreConfig(base)}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			cpu0, wall0 := processCPU(b), time.Now()
			for range b.N {
				for _, p := range pairs {
					run(b, p, tc.copies, tc.cfgs...)
				}
			}
			if wall := time.Since(wall0); wall > 0 {
				b.ReportMetric(float64(processCPU(b)-cpu0)/float64(wall), "cpu/wall")
			}
		})
	}
}
