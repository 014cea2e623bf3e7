package cache

// Level identifies a position in the three-level hierarchy.
type Level int

const (
	// L1 is the first (closest) level; the hierarchy keeps separate L1
	// instruction and data caches.
	L1 Level = iota
	// L2 is the private unified mid-level cache.
	L2
	// L3 is the shared last-level cache.
	L3
)

// String returns "l1", "l2" or "l3".
func (l Level) String() string {
	switch l {
	case L1:
		return "l1"
	case L2:
		return "l2"
	case L3:
		return "l3"
	default:
		return "l?"
	}
}

// HitLevel reports where a demand access was satisfied.
type HitLevel int

const (
	// HitL1 means the access hit in the level-one cache.
	HitL1 HitLevel = iota
	// HitL2 means it missed L1 and hit L2.
	HitL2
	// HitL3 means it missed L1 and L2 and hit L3.
	HitL3
	// HitMemory means it missed all cache levels.
	HitMemory
)

// String names the hit level.
func (h HitLevel) String() string {
	switch h {
	case HitL1:
		return "l1_hit"
	case HitL2:
		return "l2_hit"
	case HitL3:
		return "l3_hit"
	case HitMemory:
		return "mem"
	default:
		return "hit?"
	}
}

// HierarchyConfig configures a three-level hierarchy.
type HierarchyConfig struct {
	L1I, L1D, L2, L3 Config
	// Prefetcher is the spec of the prefetcher attached to the L2 data
	// path; the zero value attaches none.
	Prefetcher Prefetcher
}

// Validate checks all level configurations and the prefetcher spec.
func (h HierarchyConfig) Validate() error {
	for _, c := range []Config{h.L1I, h.L1D, h.L2, h.L3} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	_, err := ParsePrefetcher(string(h.Prefetcher))
	return err
}

// Hierarchy is a private L1I/L1D + private L2 + (possibly shared) L3 cache
// stack. L3 may be shared between several hierarchies to model multi-core
// contention: construct one hierarchy per core with NewShared.
type Hierarchy struct {
	l1i, l1d, l2 *Cache
	l3           *Cache
	pf           prefetcher
}

// NewHierarchy builds a hierarchy with a private L3.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return NewShared(cfg, New(cfg.L3))
}

// NewShared builds a hierarchy whose last level is the supplied (possibly
// shared) L3 cache. cfg.L3 is ignored. The hierarchy gets its own
// prefetcher state, so concurrent hierarchies built from one
// configuration never share it.
func NewShared(cfg HierarchyConfig, l3 *Cache) *Hierarchy {
	return &Hierarchy{
		l1i: New(cfg.L1I),
		l1d: New(cfg.L1D),
		l2:  New(cfg.L2),
		l3:  l3,
		pf:  cfg.Prefetcher.newState(),
	}
}

// Cache returns the cache at the given level of the data path (L1 returns
// the L1D cache).
func (h *Hierarchy) Cache(l Level) *Cache {
	switch l {
	case L1:
		return h.l1d
	case L2:
		return h.l2
	case L3:
		return h.l3
	default:
		panic("cache: invalid level")
	}
}

// L1I returns the instruction cache.
func (h *Hierarchy) L1I() *Cache { return h.l1i }

// Fetch performs an instruction fetch for pc and reports where it hit.
// The L1I probe takes its set-memo short-circuit when the memo is
// enabled (see Cache.MemoAccess).
func (h *Hierarchy) Fetch(pc uint64) HitLevel {
	if h.l1i.MemoAccess(pc, AccessFetch) {
		return HitL1
	}
	if h.l2.Access(pc, AccessFetch) {
		return HitL2
	}
	if h.l3.Access(pc, AccessFetch) {
		return HitL3
	}
	return HitMemory
}

// Data performs a demand data access (load or store, per kind) and reports
// where it hit. Misses propagate down the hierarchy with fills at every
// level (inclusive behaviour). When a prefetcher is attached, it observes
// L1 misses and issues prefetch fills into L2/L3. The L1D probe takes its
// set-memo short-circuit when the memo is enabled.
func (h *Hierarchy) Data(addr uint64, kind AccessKind) HitLevel {
	if h.l1d.MemoAccess(addr, kind) {
		return HitL1
	}
	return h.DataMiss(addr, kind)
}

// DataMiss completes a demand access that the caller already probed (and
// missed) in L1D: the L2 and L3 lookups plus the prefetcher observation,
// exactly the non-L1 arm of Data. Splitting the access this way lets the
// batched kernel's data sweep keep the dominant L1-hit case down to a
// single call.
func (h *Hierarchy) DataMiss(addr uint64, kind AccessKind) HitLevel {
	level := HitMemory
	switch {
	case h.l2.Access(addr, kind):
		level = HitL2
	case h.l3.Access(addr, kind):
		level = HitL3
	}
	if h.pf != nil {
		for _, p := range h.pf.Observe(addr) {
			if !h.l2.Access(p, AccessPrefetch) {
				h.l3.Access(p, AccessPrefetch)
			}
		}
	}
	return level
}

// Reset clears the private levels and statistics. The shared L3 is reset
// too; when sharing an L3 across hierarchies reset it only once.
func (h *Hierarchy) Reset() {
	h.l1i.Reset()
	h.l1d.Reset()
	h.l2.Reset()
	h.l3.Reset()
}

// prefetcher observes demand miss addresses and proposes line addresses
// to prefetch.
type prefetcher interface {
	// Observe is called with the address of each L1 demand miss and
	// returns the addresses to prefetch (possibly none).
	Observe(addr uint64) []uint64
}

// nextLinePrefetcher prefetches the degree sequentially following lines
// on every observed miss.
type nextLinePrefetcher struct {
	lineBytes, degree int
	buf               []uint64
}

func (p *nextLinePrefetcher) Observe(addr uint64) []uint64 {
	p.buf = p.buf[:0]
	line := addr &^ uint64(p.lineBytes-1)
	for i := 1; i <= p.degree; i++ {
		p.buf = append(p.buf, line+uint64(i*p.lineBytes))
	}
	return p.buf
}

// stridePrefetcher detects constant-stride streams with a small PC-less
// table of recent deltas and prefetches degree strides ahead.
type stridePrefetcher struct {
	lineBytes, degree int

	last   uint64
	stride int64
	conf   int
	buf    []uint64
}

func (p *stridePrefetcher) Observe(addr uint64) []uint64 {
	p.buf = p.buf[:0]
	line := addr &^ uint64(p.lineBytes-1)
	if p.last != 0 {
		s := int64(line) - int64(p.last)
		if s == p.stride && s != 0 {
			if p.conf < 3 {
				p.conf++
			}
		} else {
			p.stride = s
			p.conf = 0
		}
	}
	p.last = line
	if p.conf >= 2 {
		for i := 1; i <= p.degree; i++ {
			p.buf = append(p.buf, uint64(int64(line)+p.stride*int64(i)))
		}
	}
	return p.buf
}

// ResetStats zeroes statistics on all levels (including the shared L3)
// while keeping contents warm.
func (h *Hierarchy) ResetStats() {
	h.l1i.ResetStats()
	h.l1d.ResetStats()
	h.l2.ResetStats()
	h.l3.ResetStats()
}
