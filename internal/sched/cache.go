package sched

import (
	"fmt"
	"sync"
)

// Backend is a persistent second cache tier keyed by the same content
// keys as the in-memory Cache. Implementations store opaque encoded
// records (see Codec); the canonical implementation is the
// content-addressed file store in internal/store.
//
// Both methods are best-effort cache semantics: Load returns false on
// any miss or unreadable record (a corrupt record is a miss, never an
// error), and Store failures are swallowed by the implementation — a
// write that does not land simply costs a future recomputation.
type Backend interface {
	// Load returns the record stored under key, if present and intact.
	// The cache keeps the returned slice as the entry's record (see
	// Cache.Record), so Load must hand over bytes nothing else modifies.
	Load(key string) (data []byte, ok bool)
	// Store persists data under key. Records are immutable: two writes
	// under one key must carry bit-identical payloads (keys are content
	// hashes of everything that determines the result), so overwrites
	// and concurrent writers are harmless. The cache keeps data as the
	// entry's record, so Store must not modify it.
	Store(key string, data []byte)
}

// Codec translates cached values to and from the Backend's on-disk
// record encoding. Decode(Encode(v)) must reproduce v bit-identically;
// the campaign engine serves decoded records in place of recomputation.
type Codec interface {
	Encode(v any) ([]byte, error)
	Decode(data []byte) (any, error)
}

// Tier identifies which cache tier satisfied a lookup.
type Tier int

const (
	// TierMiss means no tier had the key.
	TierMiss Tier = iota
	// TierMemory means the in-process map had the key.
	TierMemory
	// TierStore means the persistent Backend had the key; the decoded
	// value has been promoted into the memory tier.
	TierStore
)

// Cache is a memoizing campaign result cache. It is safe for concurrent
// use and is meant to be shared across campaigns (re-characterizations,
// all-sizes sweeps, bench loops): a task whose content key is present is
// not re-run, and the stored value is returned bit-identical.
//
// A memory-tier entry is a value and, beside it, the value's encoded
// record once one exists: the bytes a backend hit loaded and decoded,
// the bytes a write-through Put encoded, or — on an entry that reached
// the cache with neither, as every entry of a cache with no backend
// does — the encoding Record makes on its first request. No entry is
// encoded twice, and every caller of Record shares the one slice, so a
// server can hold finished results as slices of these records instead
// of decoded copies and splice them into its responses.
//
// The memory tier grows without bound; campaigns are finite (194 pairs
// in the paper's full sweep) and entries are a few kilobytes (a pair's
// Characteristics with its counter snapshot encodes to about 2.3 KB),
// so eviction is deliberately out of scope. With SetBackend a
// persistent second tier sits underneath: lookups fall through memory
// to the backend (promoting hits), and writes go through to both tiers,
// so results survive the process and are shared between runs.
//
// Beside the result tiers the cache carries a memory-only side table
// (Memo) for intermediate values that many results share, so its
// lifetime — one campaign, one sweep, one server — is the caller's.
type Cache struct {
	mu        sync.Mutex
	entries   map[string]entry
	hits      uint64 // memory-tier hits
	storeHits uint64 // backend-tier hits
	misses    uint64
	backend   Backend
	codec     Codec
	memo      map[string]any
}

// entry is one memory-tier result: the value, and its encoded record
// once one exists (nil until then).
type entry struct {
	v   any
	rec []byte
}

// NewCache returns an empty cache with no persistent tier.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]entry), memo: make(map[string]any)}
}

// Memo returns the side-table value stored under key, calling compute
// and storing its result on a miss. The side table holds intermediate
// values, not results: it never reaches the Backend and is not counted
// in Stats or Len. Errors are returned uncached, and a nil receiver just
// computes. compute runs outside the lock, so two callers missing on
// one key concurrently may both compute; the values must be
// interchangeable (content-keyed), and the last store wins harmlessly,
// as in GetTier.
func (c *Cache) Memo(key string, compute func() (any, error)) (any, error) {
	if c == nil {
		return compute()
	}
	c.mu.Lock()
	v, ok := c.memo[key]
	c.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := compute()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.memo[key] = v
	c.mu.Unlock()
	return v, nil
}

// SetBackend attaches (or, with a nil backend, detaches) a persistent
// second tier. codec translates values to the backend's record encoding;
// it must be non-nil when backend is. Safe to call concurrently with
// lookups; entries already in memory are unaffected.
func (c *Cache) SetBackend(backend Backend, codec Codec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.backend = backend
	c.codec = codec
}

// CacheStats are cumulative lookup counters, split by the tier that
// satisfied the lookup.
type CacheStats struct {
	// Hits counts lookups satisfied by any tier
	// (MemoryHits + StoreHits); Misses counts the rest.
	Hits, Misses uint64
	// MemoryHits counts lookups satisfied by the in-process map;
	// StoreHits counts those that fell through to the persistent
	// backend and found an intact record there.
	MemoryHits, StoreHits uint64
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Get returns the entry stored under key and whether it was present in
// any tier, updating the hit/miss counters.
func (c *Cache) Get(key string) (any, bool) {
	v, tier := c.GetTier(key)
	return v, tier != TierMiss
}

// GetTier returns the entry stored under key together with the tier
// that satisfied the lookup (TierMiss when absent). A backend hit is
// decoded through the codec and promoted into the memory tier together
// with the record it was decoded from; a record that fails to decode
// counts as a miss.
func (c *Cache) GetTier(key string) (any, Tier) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.mu.Unlock()
		return e.v, TierMemory
	}
	backend, codec := c.backend, c.codec
	c.mu.Unlock()

	// Backend I/O happens outside the lock so a slow disk does not
	// serialize the campaign workers. Two workers racing on the same key
	// decode the same immutable record; last promotion wins harmlessly.
	if backend != nil && codec != nil {
		if data, ok := backend.Load(key); ok {
			if v, err := codec.Decode(data); err == nil {
				c.mu.Lock()
				c.entries[key] = entry{v: v, rec: data}
				c.storeHits++
				c.mu.Unlock()
				return v, TierStore
			}
		}
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, TierMiss
}

// Put stores v under key in the memory tier, overwriting any previous
// entry, and writes it through to the persistent backend when one is
// attached (best-effort: an encode or store failure only costs a future
// recomputation). The record the write-through encoded stays in the
// memory tier beside v.
func (c *Cache) Put(key string, v any) {
	c.mu.Lock()
	backend, codec := c.backend, c.codec
	c.mu.Unlock()
	var rec []byte
	if backend != nil && codec != nil {
		if data, err := codec.Encode(v); err == nil {
			backend.Store(key, data)
			rec = data
		}
	}
	c.mu.Lock()
	c.entries[key] = entry{v: v, rec: rec}
	c.mu.Unlock()
}

// Record returns the encoded record of the memory-tier entry under key:
// the bytes the entry reached the cache with, or, for an entry that has
// none, codec's encoding of its value, made on this first request (under
// the lock, so it is made once) and kept. Callers share the returned
// slice and must not modify it. Record fails when the memory tier holds
// no entry under key or the encoding fails; it counts no lookup.
func (c *Cache) Record(key string, codec Codec) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil, fmt.Errorf("sched: no cache entry under key %s", key)
	}
	if e.rec == nil {
		rec, err := codec.Encode(e.v)
		if err != nil {
			return nil, err
		}
		e.rec = rec
		c.entries[key] = e
	}
	return e.rec, nil
}

// HasBackend reports whether a persistent second tier is attached.
func (c *Cache) HasBackend() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.backend != nil && c.codec != nil
}

// Len returns the number of entries in the memory tier.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns the cumulative per-tier hit/miss counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:       c.hits + c.storeHits,
		Misses:     c.misses,
		MemoryHits: c.hits,
		StoreHits:  c.storeHits,
	}
}
