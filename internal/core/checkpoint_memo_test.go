package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/branch"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sched"
)

// checkpointPairs returns the first ref pair of each application the
// sweep benchmark screens.
func checkpointPairs(t *testing.T) []profile.Pair {
	t.Helper()
	want := map[string]bool{
		"505.mcf_r": true, "519.lbm_r": true, "531.deepsjeng_r": true,
		"538.imagick_r": true, "541.leela_r": true, "554.roms_r": true,
	}
	var pairs []profile.Pair
	for _, app := range profile.CPU2017() {
		if want[app.Name] {
			pairs = append(pairs, app.Expand(profile.Ref)[0])
		}
	}
	if len(pairs) != len(want) {
		t.Fatalf("found %d of %d sweep pairs", len(pairs), len(want))
	}
	return pairs
}

// TestCheckpointMemoEquivalence runs a fast-forwarding grid (two L3
// sizes x two L3 ways, sampled at the default knob and split into two
// intra-pair windows) through one shared cache, so every stream's long
// gaps are walked once and restored at the other points, and requires
// every cell to encode to exactly the bytes of the same cell run on a
// fresh cache of its own.
func TestCheckpointMemoEquivalence(t *testing.T) {
	pairs := checkpointPairs(t)
	type point struct {
		label string
		cfg   machine.Config
		sc    Scenario
	}
	var grid []point
	for _, sc := range []Scenario{{Fidelity: machine.FidelitySampled}, {IntraPairWorkers: 2}} {
		for _, l3 := range []int64{512 << 10, 1 << 20} {
			for _, ways := range []int64{8, 16} {
				cfg, err := machine.ApplyAxis(machine.HaswellScaled(), "l3.size", l3)
				if err == nil {
					cfg, err = machine.ApplyAxis(cfg, "l3.ways", ways)
				}
				if err != nil {
					t.Fatal(err)
				}
				grid = append(grid, point{fmt.Sprintf("%s,l3.size=%d,l3.ways=%d", sc, l3, ways), cfg, sc})
			}
		}
	}

	restored0 := metCheckpoints["restored"].Value()
	shared := sched.NewCache()
	n := 4 * machine.DefaultSampling().Period
	for _, pt := range grid {
		opt := Options{Machine: pt.cfg, Instructions: n, Parallelism: 2, Scenario: pt.sc}
		opt.Cache = shared
		got, err := Characterize(pairs, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Cache = sched.NewCache()
		want, err := Characterize(pairs, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs {
			g, err := CharacteristicsCodec{}.Encode(got[i])
			if err != nil {
				t.Fatal(err)
			}
			w, err := CharacteristicsCodec{}.Encode(want[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g, w) {
				t.Errorf("%s at %s: the shared-checkpoint cell differs from a fresh-cache run", p.Name(), pt.label)
			}
		}
	}
	if got := metCheckpoints["restored"].Value() - restored0; got == 0 {
		t.Error("no skip was restored from a shared checkpoint table")
	}
	if st := shared.Stats(); shared.Len() != len(grid)*len(pairs) || st.Hits != 0 {
		t.Errorf("result tier holds %d entries with %d hits; the side table must not show up as results", shared.Len(), st.Hits)
	}
}

// TestBridgeMemoEquivalence runs sampled cells of every catalogue
// predictor over three machine points that share one stream (they
// differ in L3 ways only) and two run lengths, all through one shared
// cache: the stream's table then holds bridge ends of seven predictors
// at once, later points restore the earlier ones' bridges, and the
// shorter run restores the longer one's. With the default knob the last
// bridge of both lengths is cut short by the end of the run. Every cell
// must encode to exactly the bytes of the same cell run on a fresh
// cache of its own.
func TestBridgeMemoEquivalence(t *testing.T) {
	pair := memoPairs(t)[0]
	period := machine.DefaultSampling().Period
	shared := sched.NewCache()
	for _, spec := range branch.Predictors() {
		bridges0 := metCheckpoints["bridge"].Value()
		for _, n := range []uint64{4 * period, 3*period + 40000} {
			for _, ways := range []int64{4, 8, 16} {
				base := machine.HaswellScaled()
				base.Predictor = spec
				cfg, err := machine.ApplyAxis(base, "l3.ways", ways)
				if err != nil {
					t.Fatal(err)
				}
				opt := Options{Machine: cfg, Instructions: n, Scenario: Scenario{Fidelity: machine.FidelitySampled}}
				var recs [2][]byte
				for i, cache := range []*sched.Cache{shared, sched.NewCache()} {
					opt.Cache = cache
					got, err := Characterize([]profile.Pair{pair}, opt)
					if err != nil {
						t.Fatal(err)
					}
					if recs[i], err = (CharacteristicsCodec{}).Encode(got[0]); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(recs[0], recs[1]) {
					t.Errorf("%s, n=%d, l3.ways=%d: the shared-table cell differs from a fresh-cache run", spec, n, ways)
				}
			}
		}
		if metCheckpoints["bridge"].Value() == bridges0 {
			t.Errorf("%s: no bridge was restored from the shared table", spec)
		}
	}
}

// TestCheckpointSpanAttr checks that run manifests say how many cold
// gaps and whole bridges a sampled run restored: none on the first
// machine point of a stream, some on the next point sharing its cache
// geometry.
func TestCheckpointSpanAttr(t *testing.T) {
	pair := memoPairs(t)[0]
	cache := sched.NewCache()
	var got, bridges []any
	for _, ways := range []int64{8, 16} {
		cfg, err := machine.ApplyAxis(machine.HaswellScaled(), "l3.ways", ways)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace()
		span := tr.Start("pair")
		opt := Options{Machine: cfg, Instructions: 4 * machine.DefaultSampling().Period, Cache: cache,
			Scenario: Scenario{Fidelity: machine.FidelitySampled}}
		if _, err := characterizePairCtx(obs.ContextWithSpan(context.Background(), span), pair, opt); err != nil {
			t.Fatal(err)
		}
		span.Finish()
		b, err := tr.Manifest()
		if err != nil {
			t.Fatal(err)
		}
		_, spans, err := obs.ReadManifest(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, spans[0].Attrs["checkpoints_restored"])
		bridges = append(bridges, spans[0].Attrs["bridges_restored"])
	}
	if n, ok := got[0].(float64); !ok || n != 0 {
		t.Errorf("first point's checkpoints_restored = %v, want 0", got[0])
	}
	if n, ok := got[1].(float64); !ok || n == 0 {
		t.Errorf("second point's checkpoints_restored = %v, want > 0", got[1])
	}
	if n, ok := bridges[0].(float64); !ok || n != 0 {
		t.Errorf("first point's bridges_restored = %v, want 0", bridges[0])
	}
	if n, ok := bridges[1].(float64); !ok || n == 0 {
		t.Errorf("second point's bridges_restored = %v, want > 0", bridges[1])
	}
}
