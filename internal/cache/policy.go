package cache

import "repro/internal/xrand"

// The replacement state behind each catalogued Policy. Every policy's
// Touch is idempotent: repeating Touch(s, w) before any other way of set
// s is accessed cannot change a future Victim decision (LRU re-stamps
// the set's newest way, PLRU re-points the same tree nodes, SRRIP
// re-zeroes a zero RRPV, random ignores touches). The set memos
// (Cache.MemoHit) and the batched kernel's register-level line dedups
// rely on it; TestBatchedKernelPolicyVariants checks every catalogued
// policy against the per-uop reference kernel, which uses neither.

// lruState is true least-recently-used replacement. Recency is tracked
// with an age counter per line; Victim picks the oldest.
type lruState struct {
	ways  int
	ages  []uint64 // sets*ways
	clock uint64
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

// plruState is tree-based pseudo-LRU, the policy real L1/L2 caches
// commonly approximate LRU with. Associativity must be a power of two.
type plruState struct {
	ways int
	bits [][]bool // per set: ways-1 internal tree nodes
}

func newPLRU(sets, ways int) *plruState {
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

// randomState picks a uniformly random victim, deterministic given the
// seed its PRNG was built from.
type randomState struct {
	ways int
	rng  *xrand.PCG32
}

func (s *randomState) Touch(set, w int)   {}
func (s *randomState) Fill(set, w int)    {}
func (s *randomState) Victim(set int) int { return s.rng.Intn(s.ways) }

const rrpvMax = 3

// srripState is static re-reference interval prediction (Jaleel et al.,
// ISCA 2010) with 2-bit RRPVs: fills insert at distant re-reference
// (RRPV 2), hits promote to 0, victims are lines with RRPV 3 (aging as
// needed). It resists thrashing and scanning better than LRU at L3.
type srripState struct {
	ways int
	rrpv []uint8
}

func newSRRIP(sets, ways int) *srripState {
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
