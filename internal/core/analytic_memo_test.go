package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/analytic"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/synth"
)

// TestAnalyticProfileMemoEquivalence serves an analytic grid (every
// data-cache ways axis at two L3 sizes) through one shared cache, so
// each (pair, L3 size) stream is profiled once and predicted at eight
// points, and requires every cell to encode to exactly the bytes of a
// fresh, cacheless analytic.Run — and the profile counter to show one
// computed profile per distinct stream.
func TestAnalyticProfileMemoEquivalence(t *testing.T) {
	pairs := memoPairs(t)
	l3Sizes := []int64{1 << 20, 4 << 20}
	type point struct {
		label string
		cfg   machine.Config
	}
	var grid []point
	for _, l3 := range l3Sizes {
		for _, l1dWays := range []int64{4, 8} {
			for _, l2Ways := range []int64{4, 8} {
				for _, l3Ways := range []int64{8, 16} {
					cfg := machine.HaswellScaled()
					for _, ax := range []struct {
						param string
						value int64
					}{{"l3.size", l3}, {"l1d.ways", l1dWays}, {"l2.ways", l2Ways}, {"l3.ways", l3Ways}} {
						var err error
						if cfg, err = machine.ApplyAxis(cfg, ax.param, ax.value); err != nil {
							t.Fatal(err)
						}
					}
					grid = append(grid, point{fmt.Sprintf("l3.size=%d,l1d.ways=%d,l2.ways=%d,l3.ways=%d", l3, l1dWays, l2Ways, l3Ways), cfg})
				}
			}
		}
	}

	computed0 := metAnalyticProfiles["computed"].Value()
	reused0 := metAnalyticProfiles["reused"].Value()
	cache := sched.NewCache()
	for _, pt := range grid {
		opt := Options{
			Machine: pt.cfg, Instructions: 1 << 20, Parallelism: 2, Cache: cache,
			Scenario: Scenario{Fidelity: machine.FidelityAnalytic},
		}
		chars, err := Characterize(pairs, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs {
			got, err := CharacteristicsCodec{}.Encode(chars[i])
			if err != nil {
				t.Fatal(err)
			}
			want, err := CharacteristicsCodec{}.Encode(*freshAnalytic(t, p, opt))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s at %s: a shared-profile cell differs from a fresh analytic.Run", p.Name(), pt.label)
			}
		}
	}
	cells := uint64(len(grid) * len(pairs))
	streams := uint64(len(l3Sizes) * len(pairs))
	if got := metAnalyticProfiles["computed"].Value() - computed0; got != streams {
		t.Errorf("computed profiles = %d, want one per (pair, L3 size) = %d", got, streams)
	}
	if got := metAnalyticProfiles["reused"].Value() - reused0; got != cells-streams {
		t.Errorf("reused profiles = %d, want %d", got, cells-streams)
	}
	if st := cache.Stats(); cache.Len() != int(cells) || st.Hits != 0 {
		t.Errorf("result tier holds %d entries with %d hits; the side table must not show up as results", cache.Len(), st.Hits)
	}
}

// memoPairs returns one ref pair of three applications with distinct
// memory behaviour.
func memoPairs(t *testing.T) []profile.Pair {
	t.Helper()
	var pairs []profile.Pair
	for _, app := range profile.CPU2017() {
		switch app.Name {
		case "505.mcf_r", "519.lbm_r", "541.leela_r":
			pairs = append(pairs, app.Expand(profile.Ref)[0])
		}
	}
	if len(pairs) != 3 {
		t.Fatalf("found %d of 3 memo pairs", len(pairs))
	}
	return pairs
}

// freshAnalytic characterizes one pair with the fused, unmemoized
// analytic.Run on a generator of its own.
func freshAnalytic(t *testing.T, p profile.Pair, opt Options) *Characteristics {
	t.Helper()
	opt = opt.withDefaults()
	m := p.Model
	gen, err := synth.New(m, opt.Machine.Geometry())
	if err != nil {
		t.Fatal(err)
	}
	res, err := analytic.Run(opt.Machine, gen, machine.Options{
		Instructions: opt.Instructions,
		Workload:     pipeline.Workload{ILP: 2, MLP: m.MLP},
		CalibrateIPC: m.TargetIPC,
	})
	if err != nil {
		t.Fatal(err)
	}
	return characteristicsOf(p, res, opt)
}

// TestAnalyticProfileSpanAttr checks that run manifests say whether a
// prediction came from a shared profile.
func TestAnalyticProfileSpanAttr(t *testing.T) {
	pair := memoPairs(t)[0]
	cache := sched.NewCache()
	var got []any
	for _, ways := range []int64{8, 16} {
		cfg, err := machine.ApplyAxis(machine.HaswellScaled(), "l3.ways", ways)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace()
		span := tr.Start("pair")
		opt := Options{Machine: cfg, Instructions: 1 << 20, Cache: cache, Scenario: Scenario{Fidelity: machine.FidelityAnalytic}}
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
		got = append(got, spans[0].Attrs["analytic_profile"])
	}
	if got[0] != "computed" || got[1] != "reused" {
		t.Errorf("analytic_profile attrs = %v, want [computed reused]", got)
	}
}
