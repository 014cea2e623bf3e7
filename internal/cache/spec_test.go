package cache

import (
	"errors"
	"testing"
)

// TestPolicySpecs pins the policy catalogue's spellings: each accepted
// spelling parses to its canonical spec, whose String parses back to it.
func TestPolicySpecs(t *testing.T) {
	for _, tc := range []struct{ in, spec, str string }{
		{"", "", "lru"},
		{"lru", "", "lru"},
		{"plru", "plru", "plru"},
		{"srrip", "srrip", "srrip"},
		{"random", "random:seed=0", "random:seed=0"},
		{"random:seed=042", "random:seed=42", "random:seed=42"},
	} {
		p, err := ParsePolicy(tc.in)
		if err != nil || p != Policy(tc.spec) || p.String() != tc.str {
			t.Errorf("ParsePolicy(%q) = %q (String %q), %v; want %q (%q)", tc.in, p, p.String(), err, tc.spec, tc.str)
		}
		if back, err := ParsePolicy(p.String()); err != nil || back != p {
			t.Errorf("ParsePolicy(%q) = %q, %v; want %q", p.String(), back, err, p)
		}
	}
	for _, bad := range []string{"mru", "LRU", "random:", "random:seed=-1", "random:7", "plru:2"} {
		if p, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) = %q, want an error", bad, p)
		}
	}
}

// TestPrefetcherSpecs pins the prefetcher catalogue's spellings and its
// typed bounds on line size and degree.
func TestPrefetcherSpecs(t *testing.T) {
	for _, tc := range []struct{ in, spec, str string }{
		{"", "", "none"},
		{"none", "", "none"},
		{"nextline:64:1", "nextline:64:1", "nextline:64:1"},
		{"stride:0128:+8", "stride:128:8", "stride:128:8"},
		{"nextline:2:64", "nextline:2:64", "nextline:2:64"},
	} {
		p, err := ParsePrefetcher(tc.in)
		if err != nil || p != Prefetcher(tc.spec) || p.String() != tc.str {
			t.Errorf("ParsePrefetcher(%q) = %q (String %q), %v; want %q (%q)", tc.in, p, p.String(), err, tc.spec, tc.str)
		}
		if back, err := ParsePrefetcher(p.String()); err != nil || back != p {
			t.Errorf("ParsePrefetcher(%q) = %q, %v; want %q", p.String(), back, err, p)
		}
	}
	for _, bad := range []string{"markov:1:2", "nextline:64", "nextline:64:1:1", "stride:x:2", "NONE"} {
		if p, err := ParsePrefetcher(bad); err == nil {
			t.Errorf("ParsePrefetcher(%q) = %q, want an error", bad, p)
		}
	}
	for _, bad := range []string{"nextline:0:1", "nextline:1:1", "stride:48:2", "stride:-64:2"} {
		var le *PrefetchLineError
		if _, err := ParsePrefetcher(bad); !errors.As(err, &le) {
			t.Errorf("ParsePrefetcher(%q) = %v, want a *PrefetchLineError", bad, err)
		}
	}
	for _, bad := range []string{"nextline:64:0", "stride:64:-1", "nextline:64:65", "nextline:64:1000000000"} {
		var de *PrefetchDegreeError
		if _, err := ParsePrefetcher(bad); !errors.As(err, &de) {
			t.Errorf("ParsePrefetcher(%q) = %v, want a *PrefetchDegreeError", bad, err)
		}
	}
	h := testHierarchyConfig()
	h.Prefetcher = "nextline:64:1000000000"
	if err := h.Validate(); err == nil {
		t.Error("HierarchyConfig.Validate accepted an unbounded prefetch degree")
	}
}

// TestHierarchiesOwnPrefetchers: two hierarchies built from one
// configuration keep separate prefetcher state.
func TestHierarchiesOwnPrefetchers(t *testing.T) {
	cfg := testHierarchyConfig()
	cfg.Prefetcher = "stride:64:2"
	a, b := NewHierarchy(cfg), NewHierarchy(cfg)
	if a.pf == b.pf {
		t.Fatal("hierarchies share one prefetcher")
	}
	for i := 0; i < 6; i++ {
		a.pf.Observe(uint64(i * 64))
	}
	if got := b.pf.Observe(0); len(got) != 0 {
		t.Errorf("b's prefetcher learned a's stream: %v", got)
	}
}
