package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func smallConfig(name string, policy Policy) Config {
	return Config{Name: name, SizeBytes: 1024, Ways: 4, LineBytes: 64, Policy: policy}
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig("ok", nil)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Name: "zero"},
		{Name: "line", SizeBytes: 1024, Ways: 4, LineBytes: 48},
		{Name: "size", SizeBytes: 1000, Ways: 4, LineBytes: 64},
		{Name: "ways", SizeBytes: 1024, Ways: 3, LineBytes: 64},
		// A 1-byte line lets a tag reach bit 63, the occupancy bit.
		{Name: "byte-line", SizeBytes: 8, Ways: 8, LineBytes: 1},
	}
	// Non-power-of-two set counts are allowed (modulo indexing), e.g. a
	// 30 MB 20-way L3.
	if err := (Config{Name: "np2", SizeBytes: 64 * 4 * 3, Ways: 4, LineBytes: 64}).Validate(); err != nil {
		t.Errorf("non-pow2 sets rejected: %v", err)
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q accepted, want error", c.Name)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := New(smallConfig("t", nil))
	if c.Access(0x1000, AccessLoad) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000, AccessLoad) {
		t.Fatal("second access missed")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", st)
	}
}

func TestSameLineDifferentBytes(t *testing.T) {
	c := New(smallConfig("t", nil))
	c.Access(0x1000, AccessLoad)
	if !c.Access(0x103F, AccessLoad) {
		t.Fatal("access to same 64B line missed")
	}
	if c.Access(0x1040, AccessLoad) {
		t.Fatal("access to next line hit")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// 1 KB, 4-way, 64 B lines: 4 sets. Fill one set with 4 lines, touch
	// the first, then insert a 5th: the second-inserted line must be the
	// victim.
	c := New(smallConfig("t", LRU{}))
	// Addresses mapping to set 0: line number multiple of 4.
	addr := func(i int) uint64 { return uint64(i) * 4 * 64 }
	for i := 0; i < 4; i++ {
		c.Access(addr(i), AccessLoad)
	}
	c.Access(addr(0), AccessLoad) // refresh line 0
	c.Access(addr(4), AccessLoad) // evicts line 1
	if !c.Lookup(addr(0)) {
		t.Error("recently touched line evicted")
	}
	if c.Lookup(addr(1)) {
		t.Error("LRU line not evicted")
	}
	for _, i := range []int{2, 3, 4} {
		if !c.Lookup(addr(i)) {
			t.Errorf("line %d unexpectedly evicted", i)
		}
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	// A working set equal to capacity accessed repeatedly must only
	// produce cold misses under LRU.
	c := New(Config{Name: "t", SizeBytes: 4096, Ways: 8, LineBytes: 64})
	lines := c.Lines()
	for pass := 0; pass < 5; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i*64), AccessLoad)
		}
	}
	st := c.Stats()
	if st.Misses != uint64(lines) {
		t.Errorf("misses = %d, want %d (cold only)", st.Misses, lines)
	}
}

func TestThrashingWorkingSet(t *testing.T) {
	// Cyclic access to 2x capacity under LRU misses every time.
	c := New(Config{Name: "t", SizeBytes: 4096, Ways: 8, LineBytes: 64})
	lines := c.Lines() * 2
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i*64), AccessLoad)
		}
	}
	st := c.Stats()
	if st.Hits != 0 {
		t.Errorf("hits = %d, want 0 under cyclic thrash", st.Hits)
	}
}

func TestPerKindStats(t *testing.T) {
	c := New(smallConfig("t", nil))
	c.Access(0x0, AccessLoad)   // load miss
	c.Access(0x0, AccessStore)  // store hit
	c.Access(0x40, AccessFetch) // fetch miss
	if got := c.Stats(); got.Accesses() != 3 {
		t.Errorf("total accesses = %d, want 3", got.Accesses())
	}
}

func TestPrefetchNotCounted(t *testing.T) {
	c := New(smallConfig("t", nil))
	c.Access(0x0, AccessPrefetch)
	if got := c.Stats(); got.Accesses() != 0 {
		t.Errorf("prefetch counted in stats: %+v", got)
	}
	if !c.Lookup(0x0) {
		t.Error("prefetch did not fill the line")
	}
}

func TestReset(t *testing.T) {
	c := New(smallConfig("t", nil))
	c.Access(0x0, AccessLoad)
	c.Reset()
	if c.Lookup(0x0) {
		t.Error("line survived reset")
	}
	if got := c.Stats(); got.Accesses() != 0 {
		t.Errorf("stats survived reset: %+v", got)
	}
}

// TestPoliciesKeepResidentSetBounded: under any policy, after accessing n
// distinct lines the number still resident is at most capacity, and every
// hit reported corresponds to a previously accessed line.
func TestPoliciesProperty(t *testing.T) {
	for _, pol := range Policies() {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			f := func(seed uint64) bool {
				c := New(smallConfig("t", pol))
				rng := xrand.NewPCG32(seed)
				seen := map[uint64]bool{}
				for i := 0; i < 2000; i++ {
					addr := uint64(rng.Intn(64)) * 64
					line := addr / 64
					hit := c.Access(addr, AccessLoad)
					if hit && !seen[line] {
						return false // hit on a never-seen line
					}
					seen[line] = true
				}
				// Count resident lines; must not exceed capacity.
				resident := 0
				for l := uint64(0); l < 64; l++ {
					if c.Lookup(l * 64) {
						resident++
					}
				}
				return resident <= c.Lines()
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestPLRUApproximatesLRUOnSequential(t *testing.T) {
	// On a repeated sequential scan that fits, PLRU behaves like LRU:
	// only cold misses.
	c := New(Config{Name: "t", SizeBytes: 4096, Ways: 8, LineBytes: 64, Policy: TreePLRU{}})
	lines := c.Lines()
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i*64), AccessLoad)
		}
	}
	if st := c.Stats(); st.Misses != uint64(lines) {
		t.Errorf("plru misses = %d, want %d", st.Misses, lines)
	}
}

func TestPLRURequiresPow2Ways(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("TreePLRU with 3 ways did not panic")
		}
	}()
	TreePLRU{}.New(4, 3)
}

func TestSRRIPScanResistance(t *testing.T) {
	// A hot line re-referenced between scan bursts should survive better
	// under SRRIP than the scan lines do.
	c := New(Config{Name: "t", SizeBytes: 1024, Ways: 4, LineBytes: 64, Policy: SRRIP{}})
	hot := uint64(0)
	c.Access(hot, AccessLoad)
	hits := 0
	for burst := 0; burst < 50; burst++ {
		if c.Access(hot, AccessLoad) {
			hits++
		}
		// Scan 2 distinct lines mapping to the same set (set 0: line%4==0).
		for i := 1; i <= 2; i++ {
			c.Access(uint64((burst*2+i)*4*64), AccessLoad)
		}
	}
	if hits < 40 {
		t.Errorf("hot line hits = %d/50 under SRRIP, want >= 40", hits)
	}
}

func TestHierarchyMissPropagation(t *testing.T) {
	h := NewHierarchy(testHierarchyConfig())
	// First access misses everywhere.
	if got := h.Data(0x1000, AccessLoad); got != HitMemory {
		t.Fatalf("cold access = %v, want mem", got)
	}
	// Second hits L1.
	if got := h.Data(0x1000, AccessLoad); got != HitL1 {
		t.Fatalf("warm access = %v, want l1_hit", got)
	}
	// All levels saw exactly one access each so far.
	for l := L1; l <= L3; l++ {
		st := h.Cache(l).Stats()
		if l == L1 {
			if st.Accesses() != 2 {
				t.Errorf("l1 accesses = %d, want 2", st.Accesses())
			}
		} else if st.Accesses() != 1 {
			t.Errorf("%v accesses = %d, want 1", l, st.Accesses())
		}
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := NewHierarchy(testHierarchyConfig())
	// Fill L1 beyond capacity with set-conflicting lines so an early line
	// is evicted from L1 but still in L2.
	l1 := h.Cache(L1)
	sets := l1.Sets()
	for i := 0; i < l1.Config().Ways+2; i++ {
		h.Data(uint64(i*sets*64), AccessLoad)
	}
	if got := h.Data(0, AccessLoad); got != HitL2 {
		t.Fatalf("evicted-from-L1 line = %v, want l2_hit", got)
	}
}

func TestHierarchyFetchPath(t *testing.T) {
	h := NewHierarchy(testHierarchyConfig())
	if got := h.Fetch(0x400000); got != HitMemory {
		t.Fatalf("cold fetch = %v, want mem", got)
	}
	if got := h.Fetch(0x400000); got != HitL1 {
		t.Fatalf("warm fetch = %v, want l1_hit", got)
	}
	if h.L1I().Stats().Accesses() != 2 {
		t.Error("L1I stats not updated by fetch")
	}
	if h.Cache(L1).Stats().Accesses() != 0 {
		t.Error("fetch polluted L1D stats")
	}
}

func TestSharedL3Contention(t *testing.T) {
	cfg := testHierarchyConfig()
	l3 := New(cfg.L3)
	a := NewShared(cfg, l3)
	b := NewShared(cfg, l3)
	// Core A warms a line into L3 (via its private path).
	a.Data(0x9000, AccessLoad)
	// Core B's first access to the same line hits in the shared L3.
	if got := b.Data(0x9000, AccessLoad); got != HitL3 {
		t.Fatalf("core B access = %v, want l3_hit (shared)", got)
	}
}

func TestNextLinePrefetcher(t *testing.T) {
	cfg := testHierarchyConfig()
	cfg.Prefetcher = &NextLinePrefetcher{LineBytes: 64, Degree: 1}
	h := NewHierarchy(cfg)
	h.Data(0x0, AccessLoad) // miss; prefetches 0x40 into L2
	if got := h.Data(0x40, AccessLoad); got != HitL2 {
		t.Fatalf("next line = %v, want l2_hit from prefetch", got)
	}
}

func TestStridePrefetcherDetectsStream(t *testing.T) {
	p := &StridePrefetcher{LineBytes: 64, Degree: 2}
	// Feed a stride-1 line stream; after confidence builds, prefetches
	// appear and target line+stride.
	var got []uint64
	for i := 0; i < 6; i++ {
		got = p.Observe(uint64(i * 64))
	}
	if len(got) != 2 {
		t.Fatalf("prefetch count = %d, want 2", len(got))
	}
	if got[0] != 6*64 || got[1] != 7*64 {
		t.Errorf("prefetch targets = %v, want [384 448]", got)
	}
}

func TestStridePrefetcherIgnoresRandom(t *testing.T) {
	p := &StridePrefetcher{LineBytes: 64}
	rng := xrand.NewPCG32(77)
	issued := 0
	for i := 0; i < 1000; i++ {
		issued += len(p.Observe(uint64(rng.Intn(1<<20)) * 64))
	}
	if issued > 50 {
		t.Errorf("stride prefetcher issued %d prefetches on random stream", issued)
	}
}

func testHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I: Config{Name: "l1i", SizeBytes: 1 << 10, Ways: 2, LineBytes: 64},
		L1D: Config{Name: "l1d", SizeBytes: 1 << 10, Ways: 2, LineBytes: 64},
		L2:  Config{Name: "l2", SizeBytes: 1 << 12, Ways: 4, LineBytes: 64},
		L3:  Config{Name: "l3", SizeBytes: 1 << 14, Ways: 8, LineBytes: 64},
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := New(Config{Name: "l2", SizeBytes: 256 << 10, Ways: 8, LineBytes: 64})
	rng := xrand.NewPCG32(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(rng.Intn(1<<20))*64, AccessLoad)
	}
}

func BenchmarkHierarchyData(b *testing.B) {
	h := NewHierarchy(HierarchyConfig{
		L1I: Config{Name: "l1i", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
		L1D: Config{Name: "l1d", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
		L2:  Config{Name: "l2", SizeBytes: 256 << 10, Ways: 8, LineBytes: 64},
		L3:  Config{Name: "l3", SizeBytes: 30 << 20, Ways: 12, LineBytes: 64},
	})
	rng := xrand.NewPCG32(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Data(uint64(rng.Intn(1<<22))*64, AccessLoad)
	}
}
