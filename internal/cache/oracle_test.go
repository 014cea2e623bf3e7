package cache

import (
	"encoding/binary"
	"testing"
)

// lruOracle is an independent model of one LRU cache: per set, the
// resident line numbers from most to least recently used. It shares no
// code with the package, so it specifies what Cache's probe must do
// rather than restating how it does it.
type lruOracle struct {
	lineBytes, sets uint64
	ways            int
	recency         [][]uint64
	hits, misses    uint64
	evictions       uint64
}

func newLRUOracle(lineBytes, sets uint64, ways int) *lruOracle {
	return &lruOracle{lineBytes: lineBytes, sets: sets, ways: ways, recency: make([][]uint64, sets)}
}

// find returns the set of addr's line, the line number and its position
// in the set's recency list (-1 when absent).
func (o *lruOracle) find(addr uint64) (set, line uint64, pos int) {
	line = addr / o.lineBytes
	set = line % o.sets
	for i, l := range o.recency[set] {
		if l == line {
			return set, line, i
		}
	}
	return set, line, -1
}

// access moves the line to the front of its set, evicting the least
// recently used line of a full set on a miss. It reports the hit and the
// base address of the line evicted, if any.
func (o *lruOracle) access(addr uint64, demand bool) (hit, evicted bool, victim uint64) {
	set, line, pos := o.find(addr)
	list := o.recency[set]
	if pos >= 0 {
		list = append(list[:pos], list[pos+1:]...)
	} else if len(list) == o.ways {
		victim = list[len(list)-1] * o.lineBytes
		list, evicted = list[:len(list)-1], true
		o.evictions++
	}
	o.recency[set] = append([]uint64{line}, list...)
	hit = pos >= 0
	if demand && hit {
		o.hits++
	} else if demand {
		o.misses++
	}
	return hit, evicted, victim
}

func (o *lruOracle) invalidate(addr uint64) bool {
	set, _, pos := o.find(addr)
	if pos < 0 {
		return false
	}
	o.recency[set] = append(o.recency[set][:pos], o.recency[set][pos+1:]...)
	return true
}

// FuzzCacheLRUOracle drives one LRU cache and the oracle with the same
// operations and asserts they agree on every hit and miss, every
// Invalidate and Lookup answer, every evicted address and the final
// Stats. geom picks the geometry — line size 1-128 bytes (1-byte lines
// must be rejected), 1-8 ways, 1-16 sets (a single set and
// non-power-of-two counts included) — and whether demand accesses go
// through the set memo (MemoAccess on a memo-enabled cache) or plain
// Access. ops is a sequence of records: an op byte (low bits: load,
// store, fetch, prefetch, invalidate, lookup) followed by either a line
// number byte or, when the op's top bit is set, a full 8-byte address.
func FuzzCacheLRUOracle(f *testing.F) {
	full := func(op byte, addr uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{op | 0x80}, addr)
	}
	// A 1-byte line in one 8-way set: line 1<<63 would alias the
	// occupancy bit, making a later probe of line 0 a false hit.
	f.Add(uint32(0|7<<3), append(full(0, 1<<63), 0, 0))
	// 2-byte lines, 3 ways, 5 sets, memo on: a modulo-indexed cache.
	f.Add(uint32(1|2<<3|4<<6|1<<10), []byte{0, 1, 1, 6, 0, 11, 2, 16, 0, 21, 4, 6, 5, 6, 0, 1, 3, 26, 0, 31})
	// 64-byte lines, 2 ways, 4 sets, memo on, with high addresses.
	f.Add(uint32(6|1<<3|3<<6|1<<10), append(full(1, ^uint64(0)), append(full(2, 1<<62), 0, 4, 0, 8, 4, 4, 0, 4, 5, 8)...))

	f.Fuzz(func(t *testing.T, geom uint32, ops []byte) {
		lineBytes := uint64(1) << (geom & 7)
		ways := 1 + int(geom>>3&7)
		sets := uint64(1 + geom>>6&15)
		memo := geom>>10&1 == 1
		cfg := Config{Name: "oracle", SizeBytes: int(lineBytes*sets) * ways, Ways: ways, LineBytes: int(lineBytes)}
		if err := cfg.Validate(); err != nil {
			if lineBytes >= 2 {
				t.Fatalf("valid geometry %+v rejected: %v", cfg, err)
			}
			return
		}
		if lineBytes < 2 {
			t.Fatalf("1-byte line geometry %+v accepted", cfg)
		}
		c := New(cfg)
		if memo {
			c.EnableFetchMemo()
		}
		var evicted []uint64
		c.OnEvict = func(addr uint64) { evicted = append(evicted, addr) }
		o := newLRUOracle(lineBytes, sets, ways)

		for i := 0; i < len(ops); {
			op := ops[i]
			i++
			var addr uint64
			if op&0x80 != 0 {
				if i+8 > len(ops) {
					break
				}
				addr = binary.LittleEndian.Uint64(ops[i:])
				i += 8
			} else {
				if i >= len(ops) {
					break
				}
				addr = uint64(ops[i])*lineBytes + uint64(op>>4&7)%lineBytes
				i++
			}
			switch kind := (op & 7) % 6; kind {
			case 4:
				if got, want := c.Invalidate(addr), o.invalidate(addr); got != want {
					t.Fatalf("op %d: Invalidate(%#x) = %v, oracle %v", i, addr, got, want)
				}
			case 5:
				_, _, pos := o.find(addr)
				if got := c.Lookup(addr); got != (pos >= 0) {
					t.Fatalf("op %d: Lookup(%#x) = %v, oracle resident %v", i, addr, got, pos >= 0)
				}
			default:
				k := AccessKind(kind)
				if c.MemoHit(addr) {
					if _, _, pos := o.find(addr); pos != 0 {
						t.Fatalf("op %d: MemoHit(%#x) but oracle recency position %d", i, addr, pos)
					}
				}
				evicted = evicted[:0]
				var hit bool
				if memo && k != AccessPrefetch {
					hit = c.MemoAccess(addr, k)
				} else {
					hit = c.Access(addr, k)
				}
				wantHit, wantEvict, victim := o.access(addr, k != AccessPrefetch)
				if hit != wantHit {
					t.Fatalf("op %d: kind %d access %#x hit = %v, oracle %v", i, k, addr, hit, wantHit)
				}
				switch {
				case wantEvict && (len(evicted) != 1 || evicted[0] != victim):
					t.Fatalf("op %d: access %#x evicted %#x, oracle %#x", i, addr, evicted, victim)
				case !wantEvict && len(evicted) != 0:
					t.Fatalf("op %d: access %#x evicted %#x, oracle none", i, addr, evicted)
				}
			}
		}
		want := Stats{Hits: o.hits, Misses: o.misses, Evictions: o.evictions}
		if got := c.Stats(); got != want {
			t.Fatalf("stats = %+v, oracle %+v", got, want)
		}
	})
}
