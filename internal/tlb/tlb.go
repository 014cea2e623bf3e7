// Package tlb models a two-level translation lookaside buffer with 4 KB
// pages, matching the Haswell DTLB (64-entry, 4-way) backed by a unified
// STLB (1024-entry, 8-way).
package tlb

// Config describes one TLB level.
type Config struct {
	// Entries is the total entry count.
	Entries int
	// Ways is the associativity.
	Ways int
}

// Stats accumulates translation outcomes.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// MissRate returns Misses over total translations, or 0.
func (s Stats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// PageBits is log2 of the page size (4 KB pages).
const PageBits = 12

// level is one set-associative TLB array with LRU replacement.
type level struct {
	sets  int
	ways  int
	pages []uint64
	valid []bool
	ages  []uint64
	clock uint64
	stats Stats
}

func newLevel(cfg Config) *level {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic("tlb: invalid level config")
	}
	n := cfg.Entries
	return &level{
		sets:  n / cfg.Ways,
		ways:  cfg.Ways,
		pages: make([]uint64, n),
		valid: make([]bool, n),
		ages:  make([]uint64, n),
	}
}

// access returns true on hit, filling on miss.
func (l *level) access(page uint64) bool {
	set := int(page % uint64(l.sets))
	base := set * l.ways
	l.clock++
	for w := 0; w < l.ways; w++ {
		if l.valid[base+w] && l.pages[base+w] == page {
			l.ages[base+w] = l.clock
			l.stats.Hits++
			return true
		}
	}
	l.stats.Misses++
	victim, oldest := 0, ^uint64(0)
	for w := 0; w < l.ways; w++ {
		if !l.valid[base+w] {
			victim = w
			break
		}
		if l.ages[base+w] < oldest {
			victim, oldest = w, l.ages[base+w]
		}
	}
	l.pages[base+victim] = page
	l.valid[base+victim] = true
	l.ages[base+victim] = l.clock
	return false
}

// TLB is the two-level translation structure.
type TLB struct {
	l1 *level
	l2 *level
}

// Outcome reports where a translation was found.
type Outcome int

const (
	// HitL1 means the first-level TLB held the translation.
	HitL1 Outcome = iota
	// HitL2 means only the second-level TLB held it.
	HitL2
	// Walk means both levels missed and a page walk was required.
	Walk
)

// New returns a TLB with the given level configurations.
func New(l1, l2 Config) *TLB {
	return &TLB{l1: newLevel(l1), l2: newLevel(l2)}
}

// NewHaswell returns the paper machine's DTLB configuration.
func NewHaswell() *TLB {
	return New(Config{Entries: 64, Ways: 4}, Config{Entries: 1024, Ways: 8})
}

// Translate looks up the page containing addr, filling both levels on a
// walk, and reports where the translation was found.
func (t *TLB) Translate(addr uint64) Outcome {
	page := addr >> PageBits
	if t.l1.access(page) {
		return HitL1
	}
	if t.l2.access(page) {
		return HitL2
	}
	return Walk
}

// RecordL1Hits credits n first-level hits without probing the arrays or
// advancing the LRU clock. It exists for batched callers that have proven
// the translations would hit the entry most recently promoted in its set —
// e.g. the machine deduplicating consecutive same-page data accesses.
// Victim choice depends only on the relative order of entry ages, so
// skipping the redundant re-promotions cannot change any future
// replacement decision; the resulting statistics are bit-identical to
// performing the translations.
func (t *TLB) RecordL1Hits(n uint64) { t.l1.stats.Hits += n }

// L1Stats returns first-level statistics.
func (t *TLB) L1Stats() Stats { return t.l1.stats }

// Walks returns the number of page walks performed.
func (t *TLB) Walks() uint64 { return t.l2.stats.Misses }

// ResetStats zeroes the statistics while keeping translations warm.
func (t *TLB) ResetStats() {
	t.l1.stats = Stats{}
	t.l2.stats = Stats{}
}
