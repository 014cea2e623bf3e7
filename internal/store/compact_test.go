package store

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

func payloadFor(key string) string { return fmt.Sprintf(`{"k":"%s"}`, key) }

// quietSegments writes segs segments of per records each, one handle per
// segment as separate processes would, ages them past quietAge and
// returns their keys. Keys are numbered from first.
func quietSegments(t *testing.T, dir string, first, segs, per int) []string {
	t.Helper()
	var keys []string
	for i := 0; i < segs; i++ {
		w, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < per; j++ {
			key := hexKey(fmt.Sprint(first + len(keys)))
			w.Store(key, []byte(payloadFor(key)))
			keys = append(keys, key)
		}
		path, _ := located(t, w, keys[len(keys)-1])
		age(t, path)
	}
	return keys
}

// storeFiles returns the names in dir that start with prefix.
func storeFiles(t *testing.T, dir, prefix string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), prefix) {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestCompactionPacksQuietSegments: a miss that finds compactSegments
// quiet segments moves their records into one pack and removes them.
// Every record still loads, and a fresh handle finding one key reads one
// bucket of the pack.
func TestCompactionPacksQuietSegments(t *testing.T) {
	dir := t.TempDir()
	keys := quietSegments(t, dir, 0, compactSegments, 40)
	r, _ := Open(dir)
	if _, ok := r.Load(hexKey("absent")); ok {
		t.Fatal("absent key is a hit")
	}
	if segs, packs := storeFiles(t, dir, "seg-"), storeFiles(t, dir, "pack-"); len(segs) != 0 || len(packs) != 1 {
		t.Fatalf("after compaction: segments %v, packs %v; want one pack", segs, packs)
	}
	for _, k := range keys {
		mustLoad(t, r, k, payloadFor(k))
	}

	fresh, _ := Open(dir)
	mustLoad(t, fresh, keys[17], payloadFor(keys[17]))
	pack := fresh.seen[storeFiles(t, dir, "pack-")[0]]
	if len(pack.read) != 1 || pack.all || pack.buckets < 16 {
		t.Errorf("one lookup read buckets %v (all %v) of %d, want one", pack.read, pack.all, pack.buckets)
	}
	sort.Strings(keys)
	if got := fresh.Keys(); !slices.Equal(got, keys) {
		t.Errorf("Keys lists %d keys, want the %d written", len(got), len(keys))
	}
	if st := fresh.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCompactionWaitsForQuietSegments: segments that changed recently,
// or too few quiet ones, stay as they are.
func TestCompactionWaitsForQuietSegments(t *testing.T) {
	dir := t.TempDir()
	quietSegments(t, dir, 0, compactSegments-1, 3)
	for i := 0; i < compactSegments; i++ {
		w, _ := Open(dir)
		w.Store(hexKey(fmt.Sprint("live", i)), []byte(`{"v":1}`))
	}
	r, _ := Open(dir)
	r.Load(hexKey("absent"))
	if packs := storeFiles(t, dir, "pack-"); len(packs) != 0 {
		t.Fatalf("compacted %v with only %d quiet segments", packs, compactSegments-1)
	}
	if segs := storeFiles(t, dir, "seg-"); len(segs) != 2*compactSegments-1 {
		t.Fatalf("segments = %d, want %d", len(segs), 2*compactSegments-1)
	}
}

// TestCompactedWriterMovesOn: a writer whose segment another handle
// compacted away still loads its records (from the pack, as plain hits)
// and appends its next record to a new segment.
func TestCompactedWriterMovesOn(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir)
	mine := hexKey("mine")
	w.Store(mine, []byte(payloadFor(mine)))
	path, _ := located(t, w, mine)
	age(t, path)
	quietSegments(t, dir, 0, compactSegments-1, 2)
	r, _ := Open(dir)
	r.Load(hexKey("absent"))
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("writer's quiet segment survived compaction: %v", err)
	}

	mustLoad(t, w, mine, payloadFor(mine))
	next := hexKey("next")
	w.Store(next, []byte(payloadFor(next)))
	if st := w.Stats(); st.Hits != 1 || st.Misses != 0 || st.WriteErrors != 0 {
		t.Errorf("stats = %+v, want a hit and no write error", st)
	}
	if segs := storeFiles(t, dir, "seg-"); len(segs) != 1 {
		t.Errorf("segments = %v, want the writer's new one", segs)
	}
	mustLoad(t, r, next, payloadFor(next))
}

// TestPacksMerge: once maxPacks packs exist, the next compaction merges
// them into its new pack, and every record written so far loads.
func TestPacksMerge(t *testing.T) {
	dir := t.TempDir()
	var keys []string
	for round := 1; round <= maxPacks+1; round++ {
		keys = append(keys, quietSegments(t, dir, len(keys), compactSegments, 3)...)
		r, _ := Open(dir)
		r.Load(hexKey("absent"))
		want := round
		if round > maxPacks {
			want = 1
		}
		if packs := storeFiles(t, dir, "pack-"); len(packs) != want {
			t.Fatalf("round %d: packs %v, want %d", round, packs, want)
		}
		fresh, _ := Open(dir)
		for _, k := range keys {
			mustLoad(t, fresh, k, payloadFor(k))
		}
	}
}

// TestCompactionKeepsNewestIntact: a pack takes the newest intact copy of
// each key and drops damaged copies and torn tails.
func TestCompactionKeepsNewestIntact(t *testing.T) {
	dir := t.TempDir()
	k1, k2, torn := hexKey("k1"), hexKey("k2"), hexKey("torn")
	quietSegments(t, dir, 0, compactSegments-2, 1)
	a, _ := Open(dir)
	a.Store(k1, []byte(`{"v":"intact"}`))
	a.Store(k2, []byte(`{"v":"damage"}`))
	b, _ := Open(dir)
	b.Store(k1, []byte(`{"v":"DAMAGE"}`))
	b.Store(torn, []byte(`{"v":"torn"}`))
	pathA, _ := located(t, a, k2)
	pathB, l := located(t, b, torn)
	for _, edit := range []struct {
		path     string
		from, to string
	}{{pathA, "damage", "DAMAGE"}, {pathB, `{"v":"DAMAGE"}`, `{"v":"Damage"}`}} {
		data, _ := os.ReadFile(edit.path)
		os.WriteFile(edit.path, []byte(strings.Replace(string(data), edit.from, edit.to, 1)), 0o644)
	}
	if err := os.Truncate(pathB, l.off+int64(l.n)-3); err != nil {
		t.Fatal(err)
	}
	age(t, pathA, pathB)

	r, _ := Open(dir)
	mustLoad(t, r, k1, `{"v":"intact"}`)
	if packs := storeFiles(t, dir, "pack-"); len(packs) != 1 {
		t.Fatalf("packs = %v, want one", packs)
	}
	fresh, _ := Open(dir)
	mustLoad(t, fresh, k1, `{"v":"intact"}`)
	for _, k := range []string{k2, torn} {
		if _, ok := fresh.Load(k); ok {
			t.Errorf("key %s with no intact copy is a hit", k)
		}
		if slices.Contains(fresh.Keys(), k) {
			t.Errorf("the pack kept key %s, which had no intact copy", k)
		}
	}
}

// TestConcurrentCompaction: handles that compact the same quiet segments
// at once leave every record loadable.
func TestConcurrentCompaction(t *testing.T) {
	dir := t.TempDir()
	keys := quietSegments(t, dir, 0, 2*compactSegments, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, _ := Open(dir)
			for _, k := range keys[i:] {
				if got, ok := h.Load(k); !ok || string(got) != payloadFor(k) {
					t.Errorf("handle %d: Load(%s) ok=%v payload=%s", i, k, ok, got)
				}
			}
		}(i)
	}
	wg.Wait()
	fresh, _ := Open(dir)
	for _, k := range keys {
		mustLoad(t, fresh, k, payloadFor(k))
	}
	if got := len(fresh.Keys()); got != len(keys) {
		t.Errorf("Keys lists %d, want %d", got, len(keys))
	}
}

// TestStaleCompactionTempRemoved: a quiet pack temp file, left by a
// compaction that died before its rename, is removed; a fresh one, a
// compaction still running, is not.
func TestStaleCompactionTempRemoved(t *testing.T) {
	dir := t.TempDir()
	stale, running := filepath.Join(dir, "pack-0-stale.tmp"), filepath.Join(dir, "pack-1-running.tmp")
	for _, p := range []string{stale, running} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	age(t, stale)
	s, _ := Open(dir)
	s.Load(hexKey("absent"))
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived: %v", err)
	}
	if _, err := os.Stat(running); err != nil {
		t.Errorf("running compaction's temp file removed: %v", err)
	}
	if st := s.Stats(); st.Misses != 1 || st.Corrupt != 0 {
		t.Errorf("stats = %+v", st)
	}
}
