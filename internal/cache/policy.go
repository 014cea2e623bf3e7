package cache

import (
	"fmt"

	"repro/internal/xrand"
)

// LRU is true least-recently-used replacement. Recency is tracked with an
// age counter per line; Victim picks the oldest.
type LRU struct{}

// Name implements Policy.
func (LRU) Name() string { return "lru" }

type lruState struct {
	ways  int
	ages  []uint64 // sets*ways
	clock uint64
}

// New implements Policy.
func (LRU) New(sets, ways int) Replacement {
	return &lruState{ways: ways, ages: make([]uint64, sets*ways)}
}

func (s *lruState) Touch(set, w int) {
	s.clock++
	s.ages[set*s.ways+w] = s.clock
}

func (s *lruState) Fill(set, w int) { s.Touch(set, w) }

func (s *lruState) Victim(set int) int {
	// Branch-free scan: the minimum's position is data-dependent, so a
	// compare-and-branch form mispredicts on most updates; conditional
	// selects keep the pipeline full.
	ages := s.ages[set*s.ways : set*s.ways+s.ways]
	victim, oldest := 0, ages[0]
	for w := 1; w < len(ages); w++ {
		a := ages[w]
		if a < oldest {
			victim = w
		}
		if a < oldest {
			oldest = a
		}
	}
	return victim
}

// TreePLRU is tree-based pseudo-LRU, the policy real L1/L2 caches commonly
// approximate LRU with. Associativity must be a power of two.
type TreePLRU struct{}

// Name implements Policy.
func (TreePLRU) Name() string { return "plru" }

type plruState struct {
	ways int
	bits [][]bool // per set: ways-1 internal tree nodes
}

// New implements Policy.
func (TreePLRU) New(sets, ways int) Replacement {
	if ways&(ways-1) != 0 {
		panic("cache: TreePLRU requires power-of-two associativity")
	}
	st := &plruState{ways: ways, bits: make([][]bool, sets)}
	for i := range st.bits {
		st.bits[i] = make([]bool, ways-1)
	}
	return st
}

// Touch walks from the root to way w, pointing every traversed node away
// from w.
func (s *plruState) Touch(set, w int) {
	bits := s.bits[set]
	node, lo, hi := 0, 0, s.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if w < mid {
			bits[node] = true // point away: right half is colder
			node = 2*node + 1
			hi = mid
		} else {
			bits[node] = false
			node = 2*node + 2
			lo = mid
		}
	}
}

func (s *plruState) Fill(set, w int) { s.Touch(set, w) }

// Victim follows the cold pointers from the root.
func (s *plruState) Victim(set int) int {
	bits := s.bits[set]
	node, lo, hi := 0, 0, s.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if bits[node] {
			node = 2*node + 2
			lo = mid
		} else {
			node = 2*node + 1
			hi = mid
		}
	}
	return lo
}

// Random replacement picks a uniformly random victim. Deterministic given
// the seed.
type Random struct {
	// Seed initializes the victim PRNG; the zero value is a valid seed.
	Seed uint64
}

// Name implements Policy.
func (Random) Name() string { return "random" }

type randomState struct {
	ways int
	rng  *xrand.PCG32
}

// New implements Policy.
func (r Random) New(sets, ways int) Replacement {
	return &randomState{ways: ways, rng: xrand.NewPCG32(r.Seed ^ 0x9d5c)}
}

func (s *randomState) Touch(set, w int)   {}
func (s *randomState) Fill(set, w int)    {}
func (s *randomState) Victim(set int) int { return s.rng.Intn(s.ways) }

// SRRIP is static re-reference interval prediction (Jaleel et al., ISCA
// 2010) with 2-bit RRPVs: fills insert at distant re-reference (RRPV 2),
// hits promote to 0, victims are lines with RRPV 3 (aging as needed).
// It resists thrashing and scanning better than LRU at L3.
type SRRIP struct{}

// Name implements Policy.
func (SRRIP) Name() string { return "srrip" }

const rrpvMax = 3

type srripState struct {
	ways int
	rrpv []uint8
}

// New implements Policy.
func (SRRIP) New(sets, ways int) Replacement {
	st := &srripState{ways: ways, rrpv: make([]uint8, sets*ways)}
	for i := range st.rrpv {
		st.rrpv[i] = rrpvMax
	}
	return st
}

func (s *srripState) Touch(set, w int) { s.rrpv[set*s.ways+w] = 0 }

func (s *srripState) Fill(set, w int) { s.rrpv[set*s.ways+w] = rrpvMax - 1 }

func (s *srripState) Victim(set int) int {
	base := set * s.ways
	for {
		for w := 0; w < s.ways; w++ {
			if s.rrpv[base+w] == rrpvMax {
				return w
			}
		}
		for w := 0; w < s.ways; w++ {
			s.rrpv[base+w]++
		}
	}
}

// Policies returns all built-in replacement policies, for sweeps and
// ablation benchmarks.
func Policies() []Policy {
	return []Policy{LRU{}, TreePLRU{}, Random{}, SRRIP{}}
}

// Fingerprinter is an optional interface for policies (and other machine
// components) whose Name does not carry every parameter that affects
// behaviour. The machine configuration fingerprint — and therefore the
// campaign result cache key — prefers Fingerprint over Name, so two
// custom components sharing a name can never alias to the same cached
// result.
type Fingerprinter interface {
	// Fingerprint returns a string covering the component's name and
	// every behaviour-affecting parameter.
	Fingerprint() string
}

// PolicyFingerprint identifies a level's replacement policy for content
// keys: its Fingerprint when it has one, its Name otherwise, and "lru"
// for the nil default.
func PolicyFingerprint(p Policy) string {
	switch p := p.(type) {
	case nil:
		return "lru"
	case Fingerprinter:
		return p.Fingerprint()
	default:
		return p.Name()
	}
}

// Fingerprint implements Fingerprinter: Random's victim stream depends on
// its seed, which the bare name does not carry.
func (r Random) Fingerprint() string { return fmt.Sprintf("random:seed=%d", r.Seed) }

// TouchIdempotent reports whether a policy's Touch is observably
// idempotent: as long as no other way of set s has been accessed since
// Touch(s, w), repeating Touch(s, w) cannot change any future Victim
// decision. Victim only ever compares state within one set, so the
// property holds per set: LRU re-stamps the way that already holds the
// set's newest stamp (relative order within every set is unchanged),
// PLRU re-points the tree nodes the same direction, SRRIP re-zeroes an
// already-zero RRPV, and Random ignores touches entirely.
// Frequency-counting policies would not qualify. The set memos
// (Cache.MemoHit) and the batched kernel's register-level line dedups
// are only sound when this holds, so unknown custom policies
// conservatively disable them rather than risk divergence from the
// per-uop reference kernel.
func TouchIdempotent(p Policy) bool {
	switch p.(type) {
	case nil, LRU, TreePLRU, Random, SRRIP:
		return true
	}
	return false
}
