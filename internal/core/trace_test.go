package core

import (
	"bytes"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sched"
)

// tracedPairs returns a small pair set for manifest tests.
func tracedPairs(t *testing.T) []profile.Pair {
	t.Helper()
	pairs := profile.ExpandSuite(profile.CPU2017(), profile.Test)
	if len(pairs) < 2 {
		t.Fatalf("want >= 2 pairs, got %d", len(pairs))
	}
	return pairs[:2]
}

// TestCharacterizeTraceManifest runs a sampled campaign under a trace
// and checks the manifest's span tree: one campaign root, one span per
// pair carrying its tier, and the three sampling stages nested under
// each simulated pair, each exactly once.
func TestCharacterizeTraceManifest(t *testing.T) {
	pairs := tracedPairs(t)
	tr := obs.NewTrace()
	opt := Options{
		Instructions: 600000,
		Parallelism:  2,
		Scenario:     Scenario{Sampling: machine.Sampling{Period: 131072, DetailLen: 4096, WarmupLen: 4096}},
		Trace:        tr,
	}
	if _, err := Characterize(pairs, opt); err != nil {
		t.Fatalf("characterize: %v", err)
	}
	b, err := tr.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	_, spans, err := obs.ReadManifest(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}

	byID := map[int]obs.ManifestSpan{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var campaign obs.ManifestSpan
	for _, s := range spans {
		if s.Name == "campaign" {
			campaign = s
		}
	}
	if campaign.ID == 0 {
		t.Fatalf("no campaign root in %d spans", len(spans))
	}
	if campaign.Attrs["pairs"] != float64(len(pairs)) {
		t.Fatalf("campaign pairs attr = %v", campaign.Attrs["pairs"])
	}
	// The campaign records its whole normalized scenario in the one
	// text spelling, not a subset of the knobs.
	if want := "sampling=131072/4096/4096"; campaign.Attrs["scenario"] != want {
		t.Fatalf("campaign scenario attr = %v, want %q", campaign.Attrs["scenario"], want)
	}

	pairSpans := map[string]obs.ManifestSpan{}
	for _, s := range spans {
		if s.Parent == campaign.ID && s.Kind == "" && s.Attrs["tier"] != nil {
			pairSpans[s.Name] = s
		}
	}
	if len(pairSpans) != len(pairs) {
		t.Fatalf("pair spans = %d, want %d", len(pairSpans), len(pairs))
	}
	for _, p := range pairs {
		ps, ok := pairSpans[p.Name()]
		if !ok {
			t.Fatalf("no span for pair %s", p.Name())
		}
		if ps.Attrs["tier"] != "simulated" {
			t.Errorf("%s tier = %v, want simulated", p.Name(), ps.Attrs["tier"])
		}
		// Each stage is recorded once per run, however many windows
		// fed it (speckit_stage_seconds' contract).
		stages := map[string]obs.ManifestSpan{}
		for _, s := range spans {
			if s.Parent == ps.ID && s.Kind == "stage" {
				if _, dup := stages[s.Name]; dup {
					t.Errorf("%s: stage %s recorded twice", p.Name(), s.Name)
				}
				stages[s.Name] = s
			}
		}
		for _, want := range []string{"fast-forward", "warmup", "detail"} {
			if _, ok := stages[want]; !ok {
				t.Errorf("%s: missing %s stage (have %v)", p.Name(), want, stages)
			}
		}
		// A simulating stage carries the time its kernel waited for
		// the feed, a part of the stage; a skip has no feed.
		for _, name := range []string{"warmup", "detail"} {
			st := stages[name]
			w, ok := st.Attrs["feed_wait_s"].(float64)
			if !ok || w < 0 || w*1e6 > float64(st.DurUS)+1 {
				t.Errorf("%s: %s feed_wait_s = %v, stage %dus", p.Name(), name, st.Attrs["feed_wait_s"], st.DurUS)
			}
		}
		if _, ok := stages["fast-forward"].Attrs["feed_wait_s"]; ok {
			t.Errorf("%s: fast-forward stage carries feed_wait_s", p.Name())
		}
		// Stage time is a subset of the pair's wall time.
		var stageSum int64
		for _, s := range stages {
			stageSum += s.DurUS
		}
		if stageSum > ps.DurUS+1000 {
			t.Errorf("%s: stage sum %dus exceeds pair %dus", p.Name(), stageSum, ps.DurUS)
		}
	}

	// Pair spans must nest inside the campaign's wall time.
	for _, ps := range pairSpans {
		if ps.StartUS < campaign.StartUS {
			t.Errorf("%s starts before campaign", ps.Name)
		}
		if ps.StartUS+ps.DurUS > campaign.StartUS+campaign.DurUS+1000 {
			t.Errorf("%s ends after campaign", ps.Name)
		}
	}
}

// TestTraceCacheTierRecorded re-runs a campaign against a warm cache
// under a fresh trace and checks pair spans report the memory tier with
// no stage children (nothing was simulated).
func TestTraceCacheTierRecorded(t *testing.T) {
	pairs := tracedPairs(t)
	cache := sched.NewCache()
	opt := testOpt()
	opt.Cache = cache
	if _, err := Characterize(pairs, opt); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	tr := obs.NewTrace()
	opt.Trace = tr
	if _, err := Characterize(pairs, opt); err != nil {
		t.Fatalf("cached run: %v", err)
	}
	b, err := tr.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	_, spans, err := obs.ReadManifest(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	tiers := 0
	for _, s := range spans {
		if s.Attrs["tier"] != nil {
			tiers++
			if s.Attrs["tier"] != "memory" {
				t.Errorf("%s tier = %v, want memory", s.Name, s.Attrs["tier"])
			}
		}
		if s.Kind == "stage" {
			t.Errorf("cached run recorded stage span %s", s.Name)
		}
	}
	if tiers != len(pairs) {
		t.Fatalf("pair spans with tier = %d, want %d", tiers, len(pairs))
	}
}

// TestTraceDoesNotAffectKeys pins the rule that observability must not
// change cache identity: the campaign key prefix is byte-identical
// with and without a trace attached.
func TestTraceDoesNotAffectKeys(t *testing.T) {
	opt := testOpt().withDefaults()
	plain := campaignKeyPrefix(&opt)
	opt.Trace = obs.NewTrace()
	if traced := campaignKeyPrefix(&opt); traced != plain {
		t.Fatalf("trace changed campaign key:\n%s\n%s", plain, traced)
	}
}
