package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchRecords is how many records the load benchmarks' store holds.
const benchRecords = 256

// benchPayload is one result record of about the size the campaign cache
// stores (~2.2 KB).
var benchPayload = []byte(`{"v":"` + strings.Repeat("x", 2200) + `"}`)

func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = hexKey(fmt.Sprint(i))
	}
	return keys
}

// BenchmarkStoreWrite times one Store of a new record into a fresh store.
func BenchmarkStoreWrite(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(b.N)
	b.SetBytes(int64(len(benchPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Store(keys[i], benchPayload)
	}
	b.StopTimer()
	if st := s.Stats(); st.WriteErrors != 0 {
		b.Fatalf("stats = %+v", st)
	}
}

// BenchmarkStoreLoad times one Load from a fresh store holding
// benchRecords records: a hit, and a miss on a key no record carries.
func BenchmarkStoreLoad(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(benchRecords)
	for _, k := range keys {
		s.Store(k, benchPayload)
	}
	b.Run("hit", func(b *testing.B) {
		b.SetBytes(int64(len(benchPayload)))
		for i := 0; i < b.N; i++ {
			if _, ok := s.Load(keys[i%len(keys)]); !ok {
				b.Fatal("stored record is a miss")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		absent := hexKey("absent")
		for i := 0; i < b.N; i++ {
			if _, ok := s.Load(absent); ok {
				b.Fatal("absent key is a hit")
			}
		}
	})
}

// reopenRecords and reopenSegments size the store the reopen benchmark
// loads from, as if that many processes had each written a share.
const (
	reopenRecords  = 20000
	reopenSegments = 20
)

// BenchmarkStoreReopen times what a new process pays to read one record
// from a populated store: Open and the first Load, a hit. "segments"
// reads the store as its writers left it; "pack" after a miss compacted
// it, once the segments went quiet.
func BenchmarkStoreReopen(b *testing.B) {
	dir := b.TempDir()
	keys := benchKeys(reopenRecords)
	per := reopenRecords / reopenSegments
	for i := 0; i < reopenSegments; i++ {
		w, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range keys[i*per : (i+1)*per] {
			w.Store(k, benchPayload)
		}
	}
	reopen := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := s.Load(keys[(i*7919)%len(keys)]); !ok {
				b.Fatal("stored record is a miss")
			}
		}
	}
	b.Run("segments", reopen)

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	old := time.Now().Add(-2 * quietAge)
	for _, p := range segs {
		if err := os.Chtimes(p, old, old); err != nil {
			b.Fatal(err)
		}
	}
	s, _ := Open(dir)
	s.Load(hexKey("absent"))
	if packs, _ := filepath.Glob(filepath.Join(dir, "pack-*.log")); len(packs) != 1 {
		b.Fatalf("compaction left packs %v, want one", packs)
	}
	b.Run("pack", reopen)
}
