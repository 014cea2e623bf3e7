package core

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/store"
)

// TestFidelityKeyMatrix: the three fidelity tiers produce results of
// different provenance, so no two tiers may ever share a result-cache
// key for the same pair — while every spelling of the same tier
// (FidelitySampled vs an explicit default Sampling knob) normalizes to
// the same key, or a coordinator and its workers would shard one
// campaign into disjoint cache entries.
func TestFidelityKeyMatrix(t *testing.T) {
	pair := profile.CPU2017()[2].Expand(profile.Ref)[0]
	key := func(mut func(*Options)) string {
		o := testOpt()
		if mut != nil {
			mut(&o)
		}
		o = o.withDefaults()
		return pairKey(campaignKeyPrefix(&o), &pair)
	}

	exact := key(nil)
	explicitExact := key(func(o *Options) { o.Fidelity = machine.FidelityExact })
	if exact != explicitExact {
		t.Error("explicit FidelityExact changes the key over the zero value")
	}

	sampledTier := key(func(o *Options) { o.Fidelity = machine.FidelitySampled })
	sampledKnob := key(func(o *Options) { o.Sampling = machine.DefaultSampling() })
	if sampledTier != sampledKnob {
		t.Error("FidelitySampled and the explicit default knob derive different keys")
	}

	analytic := key(func(o *Options) { o.Fidelity = machine.FidelityAnalytic })
	keys := map[string]string{"exact": exact, "sampled": sampledTier, "analytic": analytic}
	for a, ka := range keys {
		for b, kb := range keys {
			if a != b && ka == kb {
				t.Errorf("fidelity %s aliases %s", a, b)
			}
		}
	}

	// The analytic tag is versioned: a model revision must invalidate
	// stored predictions rather than serve stale ones.
	ao := testOpt()
	ao.Fidelity = machine.FidelityAnalytic
	ao = ao.withDefaults()
	if p := campaignKeyPrefix(&ao); !strings.Contains(p, "fidelity=analytic-v1") {
		t.Errorf("analytic prefix %q lacks a versioned fidelity tag", p)
	}
}

// TestFidelityGoldenKeys pins the exact and sampled pair keys to the
// values they had before the fidelity tier existed: a live store
// written by an older binary must keep serving exact and sampled
// campaigns byte-identically. If this test fails the key schema moved
// for an existing tier — that invalidates every deployed store, so it
// must be deliberate, with the goldens updated in the same change.
func TestFidelityGoldenKeys(t *testing.T) {
	perl := profile.CPU2017()[0].Expand(profile.Ref)[0]
	xalan := profile.CPU2017()[4].Expand(profile.Test)[0]

	golden := []struct {
		name string
		pair *profile.Pair
		mut  func(*Options)
		want string
	}{
		{"exact/" + perl.Name(), &perl, nil,
			"bdc1dda0f43d93679d7f00a0e64e357c4c6ca38bdcc26ec30fe9b3981601863e"},
		{"exact/" + xalan.Name(), &xalan, nil,
			"c3bc5c20dbd57efe029cbb2201b225f8d054909b6831a85a5a2d0f7cf3a1dc1f"},
		{"sampled/" + perl.Name(), &perl, func(o *Options) { o.Sampling = machine.DefaultSampling() },
			"d74454300abc2308586b1f58d3351494942cae0b85e74ac9df5295f2fe9c0adc"},
		{"sampled/" + xalan.Name(), &xalan, func(o *Options) { o.Sampling = machine.DefaultSampling() },
			"27cfa1ff22eb570a97199be230254a8fac5021757acd4e96295dc70144eb6b5f"},
	}
	for _, tc := range golden {
		o := testOpt()
		if tc.mut != nil {
			tc.mut(&o)
		}
		o = o.withDefaults()
		if got := pairKey(campaignKeyPrefix(&o), tc.pair); got != tc.want {
			t.Errorf("%s key = %s, want pinned %s", tc.name, got, tc.want)
		}
	}
}

// TestAnalyticStoreNoReuse: the persistent store keeps analytic
// predictions apart from both simulation tiers, and an analytic
// campaign is bit-identically store-served on repeat.
func TestAnalyticStoreNoReuse(t *testing.T) {
	dir := t.TempDir()
	pairs := fakePairs(3)
	anaOpt := func(st sched.Backend, c *sched.Cache) Options {
		return Options{Instructions: 20000, Store: st, Cache: c,
			Scenario: Scenario{Fidelity: machine.FidelityAnalytic}}
	}

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	anaRes, err := Characterize(pairs, anaOpt(st1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if w := st1.Stats().Writes; w != uint64(len(pairs)) {
		t.Fatalf("analytic campaign wrote %d records, want %d", w, len(pairs))
	}

	// An exact campaign over the analytic store must simulate every pair.
	var ran atomic.Int64
	stubRunPair(t, func(ctx context.Context, pair profile.Pair, o Options) (*Characteristics, error) {
		ran.Add(1)
		return characterizePairCtx(ctx, pair, o)
	})
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := sched.NewCache()
	if _, err := Characterize(pairs, Options{Instructions: 20000, Store: st2, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != int64(len(pairs)) {
		t.Errorf("exact campaign over an analytic store ran %d pairs, want all %d", n, len(pairs))
	}
	if s := cache.Stats(); s.StoreHits != 0 {
		t.Errorf("exact campaign took %d store hits from analytic records", s.StoreHits)
	}

	// A repeat analytic campaign is served from the store bit-identically.
	ran.Store(0)
	st3, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Characterize(pairs, anaOpt(st3, sched.NewCache()))
	if err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("repeat analytic campaign ran %d pairs, want 0 (store-served)", n)
	}
	if !reflect.DeepEqual(anaRes, again) {
		t.Error("store-served analytic results differ from computed ones")
	}
}

// TestAnalyticSamplingRejected: the invalid combination fails fast at
// the campaign level, not per pair deep inside a fleet.
func TestAnalyticSamplingRejected(t *testing.T) {
	o := testOpt()
	o.Fidelity = machine.FidelityAnalytic
	o.Sampling = machine.DefaultSampling()
	if _, err := Characterize(fakePairs(1), o); err == nil ||
		!strings.Contains(err.Error(), "analytic") {
		t.Errorf("Characterize = %v, want analytic+sampling rejection", err)
	}
	if _, err := CharacterizePair(fakePairs(1)[0], o); err == nil ||
		!strings.Contains(err.Error(), "analytic") {
		t.Errorf("CharacterizePair = %v, want analytic+sampling rejection", err)
	}
}
