package cache

import (
	"encoding/binary"
	"testing"
)

// fuzzPolicies rotates through every built-in replacement policy so the
// fuzzer exercises each one's state machine.
var fuzzPolicies = []Policy{nil, LRU{}, TreePLRU{}, Random{Seed: 1}, SRRIP{}}

// FuzzHierarchyAccess feeds an arbitrary access stream — and a
// fuzzer-chosen (but validated) geometry — through a full hierarchy. The
// contract: construction either fails Validate or succeeds, accesses
// never panic for any address pattern, and the per-level statistics stay
// internally consistent.
func FuzzHierarchyAccess(f *testing.F) {
	f.Add([]byte{0, 0, 0}, uint8(0))
	f.Add([]byte("sequential scan of one page\x00\x01\x02\x03\x04\x05\x06\x07"), uint8(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x03, 1, 2, 3, 4, 5, 6, 7, 8, 0x42}, uint8(2))

	f.Fuzz(func(t *testing.T, data []byte, geomByte uint8) {
		// Small fuzzer-chosen geometry: L1 1-8 KB, L2 16 KB, L3 64 KB,
		// lines 32 or 64 bytes, associativity 1-8, policy rotated.
		line := 32 << (geomByte & 1)
		ways := 1 << ((geomByte >> 1) & 3)
		l1Size := (1 + int(geomByte>>4)) << 10
		pol := fuzzPolicies[int(geomByte>>2)%len(fuzzPolicies)]
		cfg := HierarchyConfig{
			L1I: Config{Name: "l1i", SizeBytes: l1Size, Ways: ways, LineBytes: line, Policy: pol},
			L1D: Config{Name: "l1d", SizeBytes: l1Size, Ways: ways, LineBytes: line, Policy: pol},
			L2:  Config{Name: "l2", SizeBytes: 16 << 10, Ways: ways, LineBytes: line, Policy: pol},
			L3:  Config{Name: "l3", SizeBytes: 64 << 10, Ways: ways, LineBytes: line, Policy: pol},
		}
		if err := cfg.Validate(); err != nil {
			return // geometry cleanly rejected
		}
		h := NewHierarchy(cfg)

		demand := map[*Cache]uint64{}
		for i := 0; i+9 <= len(data); i += 9 {
			addr := binary.LittleEndian.Uint64(data[i : i+8])
			op := data[i+8]
			switch op % 4 {
			case 0:
				h.Fetch(addr)
				demand[h.L1I()]++
			case 1:
				h.Data(addr, AccessLoad)
				demand[h.Cache(L1)]++
			case 2:
				h.Data(addr, AccessStore)
				demand[h.Cache(L1)]++
			case 3:
				// Lookup must never disturb state; bracket it with
				// identical probes to catch accidental mutation.
				before := h.Cache(L1).Lookup(addr)
				after := h.Cache(L1).Lookup(addr)
				if before != after {
					t.Fatalf("Lookup mutated state for addr %#x", addr)
				}
			}
		}

		for _, c := range []*Cache{h.L1I(), h.Cache(L1), h.Cache(L2), h.Cache(L3)} {
			s := c.Stats()
			if got := s.Accesses(); got < demand[c] {
				t.Fatalf("%s: %d demand accesses issued but stats show %d", c.Config().Name, demand[c], got)
			}
			if r := s.MissRate(); r < 0 || r > 1 {
				t.Fatalf("%s: miss rate %f out of [0,1]", c.Config().Name, r)
			}
			if s.Evictions > s.Misses {
				t.Fatalf("%s: more evictions (%d) than misses (%d)", c.Config().Name, s.Evictions, s.Misses)
			}
		}
	})
}
