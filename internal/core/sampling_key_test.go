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

// TestSamplingKeyNoAlias: sampled results are estimates, not
// bit-identical to exact runs, so a sampled key may never alias an
// exact key — nor a key sampled at a different knob — while exact keys
// stay byte-stable across the feature's introduction (a live cache or
// store written before sampling existed keeps serving exact runs).
func TestSamplingKeyNoAlias(t *testing.T) {
	pair := profile.CPU2017()[2].Expand(profile.Ref)[0]
	exact := testOpt().withDefaults()
	exactPrefix := campaignKeyPrefix(&exact)
	if strings.Contains(exactPrefix, "sampling") {
		t.Errorf("exact prefix %q mentions sampling; exact keys must not move with the feature", exactPrefix)
	}
	exactKey := pairKey(exactPrefix, &pair)

	sampled := exact
	sampled.Sampling = machine.DefaultSampling()
	sampledKey := pairKey(campaignKeyPrefix(&sampled), &pair)
	if sampledKey == exactKey {
		t.Error("sampled key aliases the exact key")
	}

	// Every knob field independently separates keys: two sampled
	// campaigns at different knobs produce different estimates.
	seen := map[string]string{"exact": exactKey, "default": sampledKey}
	for name, knob := range map[string]machine.Sampling{
		"half-period": {Period: 131072, DetailLen: 8192, WarmupLen: 8192},
		"half-detail": {Period: 262144, DetailLen: 4096, WarmupLen: 8192},
		"no-warmup":   {Period: 262144, DetailLen: 8192, WarmupLen: 0},
	} {
		o := exact
		o.Sampling = knob
		k := pairKey(campaignKeyPrefix(&o), &pair)
		for prev, pk := range seen {
			if k == pk {
				t.Errorf("knob %s aliases %s", name, prev)
			}
		}
		seen[name] = k
	}
}

// TestSampledStoreNoReuse: the persistent store tier must keep sampled
// and exact results apart — an exact campaign over a store populated by
// a sampled campaign re-simulates every pair, and vice versa.
func TestSampledStoreNoReuse(t *testing.T) {
	dir := t.TempDir()
	pairs := fakePairs(4)

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sampledOpt := Options{Instructions: 20000, Store: st1,
		Scenario: Scenario{Sampling: machine.DefaultSampling()}}
	if _, err := Characterize(pairs, sampledOpt); err != nil {
		t.Fatal(err)
	}
	if w := st1.Stats().Writes; w != uint64(len(pairs)) {
		t.Fatalf("sampled campaign wrote %d records, want %d", w, len(pairs))
	}

	// Exact campaign on the same store: every pair must simulate.
	var simulated atomic.Int64
	stubRunPair(t, func(ctx context.Context, pair profile.Pair, o Options) (*Characteristics, error) {
		simulated.Add(1)
		return characterizePairCtx(ctx, pair, o)
	})
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := sched.NewCache()
	exactOpt := Options{Instructions: 20000, Store: st2, Cache: cache}
	exactRes, err := Characterize(pairs, exactOpt)
	if err != nil {
		t.Fatal(err)
	}
	if n := simulated.Load(); n != int64(len(pairs)) {
		t.Errorf("exact campaign over a sampled store simulated %d pairs, want all %d", n, len(pairs))
	}
	if s := cache.Stats(); s.StoreHits != 0 {
		t.Errorf("exact campaign took %d store hits from sampled records", s.StoreHits)
	}

	// And back: a sampled campaign at the same knob IS served from the
	// store, proving the separation is by key, not by accident.
	simulated.Store(0)
	st3, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	repeatOpt := Options{Instructions: 20000, Store: st3,
		Cache: sched.NewCache(), Scenario: Scenario{Sampling: machine.DefaultSampling()}}
	if _, err := Characterize(pairs, repeatOpt); err != nil {
		t.Fatal(err)
	}
	if n := simulated.Load(); n != 0 {
		t.Errorf("repeat sampled campaign simulated %d pairs, want 0 (store-served)", n)
	}

	// The exact re-run above also wrote its records; a fresh exact
	// campaign is store-served and bit-identical to the simulated one.
	st4, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Characterize(pairs, Options{Instructions: 20000, Store: st4, Cache: sched.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if n := simulated.Load(); n != 0 {
		t.Errorf("repeat exact campaign simulated %d pairs, want 0", n)
	}
	if !reflect.DeepEqual(exactRes, again) {
		t.Error("store-served exact results differ from simulated ones")
	}
}
