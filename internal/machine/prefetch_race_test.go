package machine

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

// TestPrefetcherRace: every hierarchy built from one Config owns its
// prefetcher state, so runs sharing a configuration neither race nor
// perturb each other. For each built-in prefetcher, two concurrent Runs,
// RunParallels and RunShareds on one Config must each equal a solo run
// bit for bit (parallel wall-time stats aside); under -race they must
// also report no race. RunParallel's windows and RunShared's cores
// already build several hierarchies per call.
func TestPrefetcherRace(t *testing.T) {
	m := testModel()
	for _, pf := range []cache.Prefetcher{"nextline:64:2", "stride:64:2"} {
		cfg := HaswellScaled()
		cfg.Hierarchy.Prefetcher = pf
		runOpt, newSource := parallelOptions(t, cfg, m, 40000)
		parOpt, _ := parallelOptions(t, cfg, m, 3*minParallelWindow)
		sharedOpt := runOpt
		sharedOpt.CalibrateIPC = 0
		modes := map[string]func() (any, error){
			"run": func() (any, error) {
				src, err := newSource()
				if err != nil {
					return nil, err
				}
				return Run(cfg, src, runOpt)
			},
			"parallel": func() (any, error) {
				res, err := RunParallel(cfg, newSource, parOpt, 3)
				if err != nil {
					return nil, err
				}
				return stripParallel(res), nil
			},
			"shared": func() (any, error) {
				var srcs []trace.Source
				for range 2 {
					src, err := newSource()
					if err != nil {
						return nil, err
					}
					srcs = append(srcs, src)
				}
				return RunShared(cfg, srcs, sharedOpt)
			},
		}
		for name, run := range modes {
			t.Run(string(pf)+"/"+name, func(t *testing.T) {
				solo, err := run()
				if err != nil {
					t.Fatal(err)
				}
				var (
					wg   sync.WaitGroup
					got  [2]any
					errs [2]error
				)
				for i := range got {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got[i], errs[i] = run()
					}()
				}
				wg.Wait()
				for i := range got {
					if errs[i] != nil {
						t.Fatal(errs[i])
					}
					if !reflect.DeepEqual(got[i], solo) {
						t.Errorf("concurrent run %d differs from the solo run", i)
					}
				}
			})
		}
	}
}
