package sched

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
)

// memBackend is an in-memory sched.Backend for tier tests.
type memBackend struct {
	mu     sync.Mutex
	m      map[string][]byte
	loads  int
	stores int
}

func newMemBackend() *memBackend { return &memBackend{m: map[string][]byte{}} }

func (b *memBackend) Load(key string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.loads++
	v, ok := b.m[key]
	return v, ok
}

func (b *memBackend) Store(key string, data []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stores++
	b.m[key] = append([]byte(nil), data...)
}

// intCodec encodes ints as decimal strings.
type intCodec struct{}

func (intCodec) Encode(v any) ([]byte, error) {
	i, ok := v.(int)
	if !ok {
		return nil, fmt.Errorf("not an int: %T", v)
	}
	return []byte(strconv.Itoa(i)), nil
}

func (intCodec) Decode(data []byte) (any, error) {
	i, err := strconv.Atoi(string(data))
	if err != nil {
		return nil, err
	}
	return i, nil
}

func TestPutWritesThroughToBackend(t *testing.T) {
	b := newMemBackend()
	c := NewCache()
	c.SetBackend(b, intCodec{})
	c.Put("k", 7)
	if got, ok := b.m["k"]; !ok || string(got) != "7" {
		t.Fatalf("backend record = %q, %v", got, ok)
	}
	if v, tier := c.GetTier("k"); tier != TierMemory || v.(int) != 7 {
		t.Fatalf("GetTier = %v, %v; want memory hit", v, tier)
	}
}

func TestGetFallsThroughAndPromotes(t *testing.T) {
	b := newMemBackend()
	b.m["k"] = []byte("41")
	c := NewCache()
	c.SetBackend(b, intCodec{})

	v, tier := c.GetTier("k")
	if tier != TierStore || v.(int) != 41 {
		t.Fatalf("first lookup = %v, %v; want store hit", v, tier)
	}
	// Promoted: the second lookup is a memory hit and does not touch
	// the backend again.
	loads := b.loads
	if v, tier := c.GetTier("k"); tier != TierMemory || v.(int) != 41 {
		t.Fatalf("second lookup = %v, %v; want memory hit", v, tier)
	}
	if b.loads != loads {
		t.Errorf("promotion did not stick: backend loaded again")
	}
	s := c.Stats()
	if s.MemoryHits != 1 || s.StoreHits != 1 || s.Hits != 2 || s.Misses != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestUndecodableBackendRecordIsMiss(t *testing.T) {
	b := newMemBackend()
	b.m["k"] = []byte("not-a-number")
	c := NewCache()
	c.SetBackend(b, intCodec{})
	if _, tier := c.GetTier("k"); tier != TierMiss {
		t.Fatalf("tier = %v, want miss for undecodable record", tier)
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestNoBackendBehavesAsBefore(t *testing.T) {
	c := NewCache()
	if _, ok := c.Get("k"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("k", 9)
	if v, ok := c.Get("k"); !ok || v.(int) != 9 {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.MemoryHits != 1 || s.StoreHits != 0 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestRunReportsStoreHits(t *testing.T) {
	b := newMemBackend()
	c := NewCache()
	c.SetBackend(b, intCodec{})
	b.m["from-store"] = []byte("10")
	c.Put("from-memory", 20)

	tasks := []Task[int]{
		{Name: "a", Key: "from-store", Run: func(context.Context) (int, error) {
			return 0, errors.New("should have been served from the store tier")
		}},
		{Name: "b", Key: "from-memory", Run: func(context.Context) (int, error) {
			return 0, errors.New("should have been served from the memory tier")
		}},
		{Name: "c", Key: "computed", Run: func(context.Context) (int, error) {
			return 30, nil
		}},
	}
	var last Progress
	out, err := Run(context.Background(), tasks, Options{
		Workers:  1,
		Cache:    c,
		Progress: func(p Progress) { last = p },
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 10 || out[1] != 20 || out[2] != 30 {
		t.Fatalf("out = %v", out)
	}
	if last.CacheHits != 2 || last.StoreHits != 1 || last.Done != 3 {
		t.Errorf("progress = %+v, want 2 hits of which 1 store", last)
	}
	// The computed task was written through and survives into a new
	// memory tier.
	c2 := NewCache()
	c2.SetBackend(b, intCodec{})
	if v, tier := c2.GetTier("computed"); tier != TierStore || v.(int) != 30 {
		t.Errorf("write-through record = %v, %v", v, tier)
	}
}

// TestMemoSideTable pins the side table's contract: a miss computes and
// stores, a hit does not recompute, and neither touches the backend or
// the result tier's counters.
func TestMemoSideTable(t *testing.T) {
	b := newMemBackend()
	c := NewCache()
	c.SetBackend(b, intCodec{})
	c.Put("result", 1)
	stores, stats, n := b.stores, c.Stats(), c.Len()

	calls := 0
	compute := func() (any, error) { calls++; return 42, nil }
	for i := 0; i < 3; i++ {
		v, err := c.Memo("profile", compute)
		if err != nil || v != 42 {
			t.Fatalf("Memo = %v, %v; want 42, nil", v, err)
		}
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	if b.stores != stores || b.loads != 0 {
		t.Errorf("backend stores %d -> %d, loads %d: the side table must never reach the backend", stores, b.stores, b.loads)
	}
	if c.Stats() != stats || c.Len() != n {
		t.Errorf("Stats %+v -> %+v, Len %d -> %d: the side table must not count as results", stats, c.Stats(), n, c.Len())
	}
	if _, ok := c.Get("profile"); ok {
		t.Error("a side-table key is visible to Get")
	}
}

func TestMemoDoesNotCacheErrors(t *testing.T) {
	c := NewCache()
	boom := errors.New("boom")
	calls := 0
	compute := func() (any, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return "ok", nil
	}
	if _, err := c.Memo("k", compute); !errors.Is(err, boom) {
		t.Fatalf("first Memo err = %v, want boom", err)
	}
	if v, err := c.Memo("k", compute); err != nil || v != "ok" {
		t.Fatalf("second Memo = %v, %v; want a recomputed ok", v, err)
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2", calls)
	}
}

func TestMemoNilReceiverComputes(t *testing.T) {
	var c *Cache
	calls := 0
	for i := 0; i < 2; i++ {
		v, err := c.Memo("k", func() (any, error) { calls++; return calls, nil })
		if err != nil || v != i+1 {
			t.Fatalf("nil Memo = %v, %v; want %d", v, err, i+1)
		}
	}
}

// TestMemoConcurrent hammers one cache's side table and result tier from
// many goroutines (run under -race). Concurrent misses on one key may
// each compute, but every caller sees the one content-keyed value.
func TestMemoConcurrent(t *testing.T) {
	c := NewCache()
	c.SetBackend(newMemBackend(), intCodec{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := strconv.Itoa(i % 7)
				v, err := c.Memo(k, func() (any, error) { return "v" + k, nil })
				if err != nil || v != "v"+k {
					t.Errorf("Memo(%s) = %v, %v", k, v, err)
					return
				}
				c.Put(strconv.Itoa(g), i)
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 8 {
		t.Errorf("Len = %d, want the 8 result entries only", c.Len())
	}
}

// countingCodec is intCodec counting its Encode calls.
type countingCodec struct {
	intCodec
	mu      sync.Mutex
	encodes int
}

func (c *countingCodec) Encode(v any) ([]byte, error) {
	c.mu.Lock()
	c.encodes++
	c.mu.Unlock()
	return c.intCodec.Encode(v)
}

// TestRecordKeepsEncodedBytes: an entry's record is the bytes it reached
// the memory tier with — a backend hit's loaded record, a write-through
// Put's encoding — or, on a cache with no backend, one encoding made on
// the first request, however many goroutines ask at once. No entry is
// encoded twice and every caller shares the one slice.
func TestRecordKeepsEncodedBytes(t *testing.T) {
	same := func(a, b []byte) bool { return len(a) > 0 && &a[0] == &b[0] && len(a) == len(b) }

	b := newMemBackend()
	loaded := []byte("41")
	b.m["hit"] = loaded
	codec := &countingCodec{}
	c := NewCache()
	c.SetBackend(b, codec)
	if _, tier := c.GetTier("hit"); tier != TierStore {
		t.Fatalf("lookup tier %v, want store", tier)
	}
	if rec, err := c.Record("hit", codec); err != nil || !same(rec, loaded) {
		t.Fatalf("store hit record = %q, %v; want the loaded bytes", rec, err)
	}
	c.Put("put", 7)
	rec, err := c.Record("put", codec)
	if err != nil || string(rec) != "7" {
		t.Fatalf("write-through record = %q, %v", rec, err)
	}
	if again, _ := c.Record("put", codec); !same(again, rec) {
		t.Fatal("two requests got different slices")
	}
	if codec.encodes != 1 {
		t.Fatalf("%d encodes with a backend, want 1 (the write-through)", codec.encodes)
	}

	codec = &countingCodec{}
	c = NewCache()
	c.Put("k", 9)
	recs := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, err := c.Record("k", codec)
			if err != nil {
				t.Error(err)
			}
			recs[i] = rec
		}(i)
	}
	wg.Wait()
	if codec.encodes != 1 {
		t.Fatalf("%d encodes without a backend, want 1", codec.encodes)
	}
	for _, rec := range recs {
		if !same(rec, recs[0]) || string(rec) != "9" {
			t.Fatalf("records %q do not share one encoding of 9", recs)
		}
	}
	if _, err := c.Record("absent", codec); err == nil {
		t.Fatal("Record of an absent key succeeded")
	}
}
