// Package cache models set-associative caches and multi-level cache
// hierarchies, mirroring the memory system of the paper's Haswell testbed
// (32 KB 8-way L1I/L1D, 256 KB 8-way unified L2, 30 MB shared L3, 64-byte
// lines).
//
// The models are functional (hit/miss behaviour and replacement state),
// not timed; the pipeline model converts the hierarchy's per-level hit and
// miss counts into stall cycles.
package cache

import "fmt"

// Replacement selects a victim way within a set and tracks recency state.
// Each cache builds its own from its Policy spec.
type Replacement interface {
	// Touch records a hit or fill of way w in set s.
	Touch(s, w int)
	// Victim returns the way to evict from set s.
	Victim(s int) int
	// Fill records that way w of set s was filled with a new line.
	// Most policies treat this like Touch; SRRIP inserts at long
	// re-reference interval instead.
	Fill(s, w int)
}

// Config describes one cache level. Its JSON form is one level of the
// machine configuration's wire form.
type Config struct {
	// Name labels the cache in stats output (e.g. "l1d").
	Name string `json:"name,omitempty"`
	// SizeBytes is the total capacity.
	SizeBytes int `json:"size_bytes"`
	// Ways is the set associativity.
	Ways int `json:"ways"`
	// LineBytes is the cache line size.
	LineBytes int `json:"line_bytes"`
	// Policy is the replacement policy spec; the zero value is LRU.
	Policy Policy `json:"policy,omitempty"`
}

// maxLines bounds a cache's capacity in lines, which bounds the memory
// a validated configuration can ask one cache for.
const maxLines = 1 << 22

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry", c.Name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.LineBytes < 2 {
		// A 1-byte line could put a tag in bit 63, where it would alias
		// the occupancy bit folded into Cache.keys.
		return fmt.Errorf("cache %q: line size %d below 2 bytes", c.Name, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache %q: size %d not a multiple of line size %d", c.Name, c.SizeBytes, c.LineBytes)
	}
	if lines > maxLines {
		return fmt.Errorf("cache %q: %d lines exceed the %d-line bound", c.Name, lines, maxLines)
	}
	sets := lines / c.Ways
	if sets <= 0 || sets*c.Ways != lines {
		return fmt.Errorf("cache %q: %d lines not divisible into %d ways", c.Name, lines, c.Ways)
	}
	if err := c.Policy.validate(c.Ways); err != nil {
		return fmt.Errorf("cache %q: %w", c.Name, err)
	}
	return nil
}

// Stats accumulates access outcomes for one cache.
type Stats struct {
	// Hits counts accesses that found their line resident.
	Hits uint64
	// Misses counts accesses that did not.
	Misses uint64
	// Evictions counts valid lines displaced by fills.
	Evictions uint64
}

// Accesses returns Hits + Misses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns Misses / Accesses, or 0 when there were no accesses.
func (s Stats) MissRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses) / float64(a)
}

// Cache is a single set-associative cache level.
type Cache struct {
	cfg       Config
	sets      int
	ways      int
	lineShift uint
	tagShift  uint   // bitsFor(sets) when sets is a power of two
	setMask   uint64 // sets-1 when sets is a power of two, else 0
	pow2      bool
	// keys holds every way's line, sets*ways entries: the tag with
	// keyValid folded in, 0 when the way is empty, so a probe is one
	// compare per way.
	keys  []uint64
	repl  Replacement
	lru   *lruState // repl devirtualized when it is the default LRU
	stats Stats

	// memoLine and memoHit, allocated by EnableFetchMemo, record the
	// last line accessed in each set and whether it hit, for the
	// MemoHit short-circuit.
	memoLine []uint64
	memoHit  []bool

	// fills counts every line fill, including prefetch fills that the
	// demand statistics exclude; sampled runs use it to estimate the
	// cache's turnover rate (see Age). ageCursor round-robins Age's
	// evictions across sets.
	fills     uint64
	ageCursor int

	// OnEvict, when non-nil, is called with the base address of every
	// valid line a fill displaces, before the line is overwritten. A
	// shared last-level cache uses it to back-invalidate the private
	// copies of the victim line (inclusive-hierarchy accounting). The
	// callback must not access this cache.
	OnEvict func(addr uint64)
}

// New constructs a cache from cfg. It panics if cfg is invalid; callers
// that accept external configuration should call cfg.Validate first.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic("cache: " + err.Error())
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	c := &Cache{
		cfg:       cfg,
		sets:      sets,
		ways:      cfg.Ways,
		lineShift: uint(bitsFor(cfg.LineBytes)),
		tagShift:  uint(bitsFor(sets)),
		setMask:   uint64(sets - 1),
		pow2:      sets&(sets-1) == 0,
		keys:      make([]uint64, lines),
		repl:      cfg.Policy.newState(sets, cfg.Ways),
	}
	c.lru, _ = c.repl.(*lruState)
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Lines returns the total line capacity.
func (c *Cache) Lines() int { return c.sets * c.ways }

// Stats returns the accumulated access statistics.
func (c *Cache) Stats() Stats { return c.stats }

// AccessKind tells the cache what an access is on behalf of. Demand
// kinds (load, store, fetch) count in Stats; prefetches fill lines
// without counting.
type AccessKind uint8

const (
	// AccessLoad is a demand load.
	AccessLoad AccessKind = iota
	// AccessStore is a demand store (write-allocate).
	AccessStore
	// AccessFetch is an instruction fetch.
	AccessFetch
	// AccessPrefetch is a hardware prefetch (not counted in demand stats).
	AccessPrefetch
)

// keyValid is the occupancy bit folded into Cache.keys entries. Lines are
// at least 2 bytes (Config.Validate), so a tag, at most the line number,
// never reaches bit 63.
const keyValid = uint64(1) << 63

// locate splits addr into its line number, set and tag. A power-of-two
// set count indexes by the line's low bits and keeps the rest as the
// tag; other set counts (e.g. a 30 MB 20-way L3) index by modulo and
// keep the whole line number as the tag.
func (c *Cache) locate(addr uint64) (line uint64, set int, tag uint64) {
	line = addr >> c.lineShift
	if c.pow2 {
		return line, int(line & c.setMask), line >> c.tagShift
	}
	return line, int(line % uint64(c.sets)), line
}

func bitsFor(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// way returns the way of set holding tag, or -1 when it is not resident.
// The scan runs to the end with a conditional select instead of breaking
// early: the hit way is data-dependent and effectively uniform, so an
// early-exit branch mispredicts almost every probe, which costs more than
// the few extra compares.
func (c *Cache) way(set int, tag uint64) int {
	keys := c.keys[set*c.ways : (set+1)*c.ways]
	want := tag | keyValid
	hitWay := -1
	for w := range keys {
		if keys[w] == want {
			hitWay = w
		}
	}
	return hitWay
}

// Lookup probes the cache without modifying replacement state or
// statistics. It reports whether the line holding addr is resident.
func (c *Cache) Lookup(addr uint64) bool {
	_, set, tag := c.locate(addr)
	return c.way(set, tag) >= 0
}

// Access performs an access for addr. It returns true on hit. On a miss
// the line is filled (write-allocate for stores), possibly evicting a
// victim; the caller is responsible for propagating the miss to the next
// level. Demand kinds count in Stats, and the set's memo, when enabled,
// records the line and its outcome.
func (c *Cache) Access(addr uint64, kind AccessKind) bool {
	line, set, tag := c.locate(addr)
	hitWay := c.way(set, tag)
	hit := hitWay >= 0
	if hit {
		if c.lru != nil {
			c.lru.Touch(set, hitWay)
		} else {
			c.repl.Touch(set, hitWay)
		}
	} else {
		w := c.fill(set, tag)
		if c.lru != nil {
			c.lru.Fill(set, w)
		} else {
			c.repl.Fill(set, w)
		}
	}
	if kind != AccessPrefetch {
		if hit {
			c.stats.Hits++
		} else {
			c.stats.Misses++
		}
	}
	if c.memoLine != nil {
		c.memoLine[set] = line
		c.memoHit[set] = hit
	}
	return hit
}

func (c *Cache) fill(set int, tag uint64) int {
	c.fills++
	keys := c.keys[set*c.ways : (set+1)*c.ways]
	for w, k := range keys {
		if k == 0 {
			keys[w] = tag | keyValid
			return w
		}
	}
	w := c.repl.Victim(set)
	if w < 0 || w >= c.ways {
		panic(fmt.Sprintf("cache %q: policy returned invalid victim way %d", c.cfg.Name, w))
	}
	c.stats.Evictions++
	if c.OnEvict != nil {
		c.OnEvict(c.lineAddr(set, keys[w]&^keyValid))
	}
	keys[w] = tag | keyValid
	return w
}

// lineAddr reconstructs a line's base address from its set and tag,
// inverting locate.
func (c *Cache) lineAddr(set int, tag uint64) uint64 {
	line := tag
	if c.pow2 {
		line = tag<<c.tagShift | uint64(set)
	}
	return line << c.lineShift
}

// Invalidate drops the line holding addr if it is resident, reporting
// whether it was. The vacated way is refilled first on the set's next
// miss (fill scans for empty ways before consulting the policy), and
// the set's memo is cleared so memo short-circuits can never resurrect
// an invalidated line. Statistics are untouched: an invalidation is not
// a demand access.
func (c *Cache) Invalidate(addr uint64) bool {
	_, set, tag := c.locate(addr)
	w := c.way(set, tag)
	if w < 0 {
		return false
	}
	c.keys[set*c.ways+w] = 0
	if c.memoLine != nil {
		c.memoHit[set] = false
	}
	return true
}

// RecordHits credits n demand hits without probing the arrays or
// touching replacement state. It exists for batched callers that have
// proven the accesses would hit and leave replacement state unchanged —
// e.g. the machine's fetch loop deduplicating consecutive instruction
// fetches of one line. The resulting
// statistics are bit-identical to performing the accesses.
func (c *Cache) RecordHits(n uint64) { c.stats.Hits += n }

// EnableFetchMemo allocates the per-set last-access memo that lets
// MemoAccess short-circuit repeated accesses.
func (c *Cache) EnableFetchMemo() {
	c.memoLine = make([]uint64, c.sets)
	c.memoHit = make([]bool, c.sets)
}

// MemoHit reports whether addr hits the per-set last-line memo: the last
// access to its set was the same line and found it resident. The line
// is then still resident and most-recently-used, and every catalogued
// policy's touch is idempotent, so re-probing and re-touching it is
// observably a no-op (no future Victim decision can change).
// It is small enough to inline, so the batched kernel's sweeps can test
// the memo without a call and fall through to Access themselves,
// crediting the hit through RecordHits. Callers own the statistics
// credit; MemoHit records nothing.
func (c *Cache) MemoHit(addr uint64) bool {
	line, set, _ := c.locate(addr)
	return c.memoLine != nil && c.memoHit[set] && c.memoLine[set] == line
}

// MemoAccess performs a demand access with the set-memo short-circuit:
// a MemoHit is answered by a hit credit alone, which is bit-identical
// to what Access would have recorded; anything else runs Access.
func (c *Cache) MemoAccess(addr uint64, kind AccessKind) bool {
	if c.MemoHit(addr) {
		c.stats.Hits++
		return true
	}
	return c.Access(addr, kind)
}

// Fills returns the total number of line fills, including prefetch
// fills the demand statistics exclude. Together with an instruction
// count it yields the cache's turnover rate, which sampled runs use to
// size Age calls across skipped gaps.
func (c *Cache) Fills() uint64 { return c.fills }

// Age invalidates up to n replacement-policy victims, one per set,
// round-robin across sets. Sampled runs call it to model capacity
// turnover across a skipped gap: during the gap the stream would have
// kept filling the cache, displacing exactly the lines the replacement
// policy ranks as victims, while the hot lines it would keep re-touching
// survive. Simply freezing the cache instead leaves those victims
// resident, and a cyclic reference stream then re-hits them in the next
// counted window, biasing its miss rate low. Each invalidated way is
// touched to most-recently-used so successive rounds through the same
// set pick fresh victims and remaining valid lines keep their relative
// recency order; invalidated ways are refilled first on the next miss,
// so the touch is never observable to demand accesses. Statistics are
// untouched.
func (c *Cache) Age(n int) {
	if lines := c.sets * c.ways; n > lines {
		n = lines
	}
	for i := 0; i < n; i++ {
		s := c.ageCursor
		c.ageCursor++
		if c.ageCursor == c.sets {
			c.ageCursor = 0
		}
		var w int
		if c.lru != nil {
			w = c.lru.Victim(s)
		} else {
			w = c.repl.Victim(s)
		}
		c.keys[s*c.ways+w] = 0
		if c.lru != nil {
			c.lru.Touch(s, w)
		} else {
			c.repl.Touch(s, w)
		}
		if c.memoLine != nil {
			c.memoHit[s] = false
		}
	}
}

// Reset invalidates all lines and zeroes statistics.
func (c *Cache) Reset() {
	clear(c.keys)
	clear(c.memoHit)
	c.stats = Stats{}
	c.fills = 0
	c.ageCursor = 0
}

// ResetStats zeroes the access statistics while keeping cache contents,
// for discarding a warmup window.
func (c *Cache) ResetStats() { c.stats = Stats{} }
