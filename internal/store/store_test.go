package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// hexKey builds a realistic content key (the campaign cache uses hex
// SHA-256 digests).
func hexKey(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// segments returns the paths of the segment files in dir.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// located returns the segment path and index entry of key's record.
func located(t *testing.T, s *Store, key string) (string, loc) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.index[key]
	if !ok {
		t.Fatalf("key %q is not indexed", key)
	}
	return filepath.Join(s.dir, l.seg.name), l
}

func mustLoad(t *testing.T, s *Store, key, want string) {
	t.Helper()
	got, ok := s.Load(key)
	if !ok || string(got) != want {
		t.Fatalf("Load(%q): ok=%v payload=%q, want %q", key, ok, got, want)
	}
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := hexKey("pair-1")
	payload := []byte(`{"ipc":1.25,"pair":"505.mcf_r"}`)
	s.Store(key, payload)

	got, ok := s.Load(key)
	if !ok {
		t.Fatal("freshly stored record is a miss")
	}
	if string(got) != string(payload) {
		t.Fatalf("payload round trip: got %s want %s", got, payload)
	}
	st := s.Stats()
	if st.Writes != 1 || st.Hits != 1 || st.Misses != 0 || st.WriteErrors != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestStoreKeepsPayloadBytes: a hit returns exactly the bytes Store was
// given, whatever they are — HTML characters and insignificant
// whitespace included, which a JSON envelope used to rewrite under an
// unchanged checksum, so such records never loaded.
func TestStoreKeepsPayloadBytes(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	payloads := []string{`{"name":"a<b>&c"}`, `{"name": "x"}`, " \n\"not json\"\n", ""}
	for i, p := range payloads {
		s.Store(hexKey(fmt.Sprint(i)), []byte(p))
	}
	fresh, _ := Open(dir)
	for i, p := range payloads {
		mustLoad(t, s, hexKey(fmt.Sprint(i)), p)
		mustLoad(t, fresh, hexKey(fmt.Sprint(i)), p)
	}
	if st := s.Stats(); st.Corrupt != 0 || st.Writes != uint64(len(payloads)) {
		t.Errorf("stats = %+v", st)
	}
}

func TestLoadAbsentIsMiss(t *testing.T) {
	s, _ := Open(t.TempDir())
	if _, ok := s.Load(hexKey("never-stored")); ok {
		t.Fatal("absent key reported as hit")
	}
	if st := s.Stats(); st.Misses != 1 || st.Corrupt != 0 {
		t.Errorf("stats = %+v, want clean miss", st)
	}
}

// TestOpenCreatesNoFile: Open and a Load miss leave the directory as
// they found it; the first Store creates the handle's one segment.
func TestOpenCreatesNoFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "store")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Load(hexKey("absent"))
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("after Open and a miss: %v, err %v", ents, err)
	}
	s.Store(hexKey("a"), []byte(`{"v":1}`))
	s.Store(hexKey("b"), []byte(`{"v":2}`))
	if segs := segments(t, dir); len(segs) != 1 {
		t.Fatalf("two Stores made segments %v, want one", segs)
	}
}

func TestReopenSurvivesProcess(t *testing.T) {
	dir := t.TempDir()
	key := hexKey("durable")
	s1, _ := Open(dir)
	s1.Store(key, []byte(`{"v":42}`))

	s2, err := Open(dir) // fresh handle, as a new process would make
	if err != nil {
		t.Fatal(err)
	}
	mustLoad(t, s2, key, `{"v":42}`)
}

// TestHandlesShareRecords: two handles on one directory each load the
// other's records after a miss, including records appended to a
// segment the handle has already scanned.
func TestHandlesShareRecords(t *testing.T) {
	dir := t.TempDir()
	a, _ := Open(dir)
	b, _ := Open(dir)
	a.Store(hexKey("a1"), []byte(`{"v":"a1"}`))
	b.Store(hexKey("b1"), []byte(`{"v":"b1"}`))
	mustLoad(t, a, hexKey("b1"), `{"v":"b1"}`)
	mustLoad(t, b, hexKey("a1"), `{"v":"a1"}`)
	a.Store(hexKey("a2"), []byte(`{"v":"a2"}`))
	mustLoad(t, b, hexKey("a2"), `{"v":"a2"}`)
	want := []string{hexKey("a1"), hexKey("a2"), hexKey("b1")}
	sort.Strings(want)
	if got := b.Keys(); !slices.Equal(got, want) {
		t.Errorf("Keys = %v, want %v", got, want)
	}
	if st := b.Stats(); st.Hits != 2 || st.Misses != 0 {
		t.Errorf("stats = %+v, want two hits found by scanning", st)
	}
}

// age backdates the files at paths past quietAge, as if their writers
// had stopped long ago.
func age(t *testing.T, paths ...string) {
	t.Helper()
	old := time.Now().Add(-2 * quietAge)
	for _, p := range paths {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTornTailMisses: in a quiet segment cut short mid-record, the records
// before the cut still hit and the torn one is a corrupt miss. Once the
// rest of the record lands, it loads.
func TestTornTailMisses(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir)
	keys := []string{hexKey("r0"), hexKey("r1"), hexKey("r2")}
	for i, k := range keys {
		w.Store(k, []byte(fmt.Sprintf(`{"v":%d,"pad":"%s"}`, i, strings.Repeat("x", 200))))
	}
	path, l := located(t, w, keys[2])
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := l.off + int64(l.n/2)
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	age(t, path)

	r, _ := Open(dir)
	for i, k := range keys[:2] {
		if _, ok := r.Load(k); !ok {
			t.Errorf("record %d before the torn tail is a miss", i)
		}
	}
	if _, ok := r.Load(keys[2]); ok {
		t.Fatal("torn record reported as hit")
	}
	if st := r.Stats(); st.Hits != 2 || st.Misses != 1 || st.Corrupt != 1 {
		t.Errorf("stats = %+v, want 2 hits and 1 corrupt miss", st)
	}

	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Load(keys[2]); !ok {
		t.Fatal("completed tail record is still a miss")
	}
}

// TestRecordLandingBetweenScansIsNotCorrupt: a reader that lists a
// segment while another process's record is still landing sees it cut
// short. That is a plain miss, not a corrupt one, and the record loads
// once whole.
func TestRecordLandingBetweenScansIsNotCorrupt(t *testing.T) {
	dir := t.TempDir()
	key := hexKey("landing")
	rec := frame(key, []byte(`{"v":"landing"}`))
	path := filepath.Join(dir, "seg-0-writer.log")
	whole := cat(frame(hexKey("before"), []byte(`{"v":1}`)), rec)
	// The header has landed, the payload not all of it.
	if err := os.WriteFile(path, whole[:len(whole)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	r, _ := Open(dir)
	for i := 0; i < 2; i++ {
		if _, ok := r.Load(key); ok {
			t.Fatal("record cut short reported as hit")
		}
	}
	if st := r.Stats(); st.Misses != 2 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want two plain misses", st)
	}
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	mustLoad(t, r, key, `{"v":"landing"}`)
	if st := r.Stats(); st.Corrupt != 0 {
		t.Errorf("stats = %+v, want no corrupt miss", st)
	}
}

// TestFailedAppendStartsNewSegment: after an append fails, the handle's
// next record goes to a new segment, so the failed one can only have
// left a torn tail behind.
func TestFailedAppendStartsNewSegment(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.Store(hexKey("first"), []byte(`{"v":1}`))
	path, _ := located(t, s, hexKey("first"))
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A directory in the segment's place makes the next append fail
	// (even for root, who ignores permission bits).
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	s.Store(hexKey("failed"), []byte(`{"v":2}`))
	if st := s.Stats(); st.WriteErrors != 1 || st.Writes != 1 {
		t.Fatalf("stats = %+v, want one write error", st)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, first, 0o644); err != nil {
		t.Fatal(err)
	}

	s.Store(hexKey("next"), []byte(`{"v":3}`))
	if next, _ := located(t, s, hexKey("next")); next == path {
		t.Fatalf("record after a failed append went to the abandoned segment %s", path)
	}
	if segs := segments(t, dir); len(segs) != 2 {
		t.Errorf("segments = %v, want the abandoned one and a new one", segs)
	}
	fresh, _ := Open(dir)
	mustLoad(t, fresh, hexKey("first"), `{"v":1}`)
	mustLoad(t, fresh, hexKey("next"), `{"v":3}`)
	if _, ok := fresh.Load(hexKey("failed")); ok {
		t.Error("failed write reported as hit")
	}
}

// corruptions enumerates the on-disk failure modes Load must absorb as
// misses: each mutator damages the segment holding a valid record in a
// different way.
var corruptions = []struct {
	name   string
	mutate func(t *testing.T, path string, l loc)
}{
	{"truncated", func(t *testing.T, path string, l loc) {
		if err := os.Truncate(path, l.off+int64(l.n/2)); err != nil {
			t.Fatal(err)
		}
	}},
	{"garbage", func(t *testing.T, path string, l loc) {
		if err := os.WriteFile(path, []byte("not json at all\x00\xff"), 0o644); err != nil {
			t.Fatal(err)
		}
	}},
	{"empty", func(t *testing.T, path string, l loc) {
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}},
	{"tampered-payload", func(t *testing.T, path string, l loc) {
		data, _ := os.ReadFile(path)
		// Flip the stored IPC without updating the checksum.
		out := bytes.Replace(data, []byte(`1.25`), []byte(`9.25`), 1)
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}},
}

func TestCorruptRecordIsMissNeverError(t *testing.T) {
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := Open(dir)
			key := hexKey("victim-" + tc.name)
			s.Store(key, []byte(`{"ipc":1.25}`))
			path, l := located(t, s, key)
			tc.mutate(t, path, l)

			if _, ok := s.Load(key); ok {
				t.Fatal("corrupt record reported as hit")
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Errorf("stats = %+v, want Corrupt=1", st)
			}
			fresh, _ := Open(dir)
			if _, ok := fresh.Load(key); ok {
				t.Fatal("corrupt record reported as hit by a fresh handle")
			}
			// The store self-heals: a recomputation's write-through
			// appends an intact copy, which every handle then loads.
			s.Store(key, []byte(`{"ipc":1.25}`))
			mustLoad(t, s, key, `{"ipc":1.25}`)
			mustLoad(t, fresh, key, `{"ipc":1.25}`)
		})
	}
}

// TestRecordCopiedToWrongKeyIsMiss: a payload copied into another key's
// record no longer matches that record's checksum.
func TestRecordCopiedToWrongKeyIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	k1, k2 := hexKey("a"), hexKey("b")
	s.Store(k1, []byte(`{"v":1}`))
	s.Store(k2, []byte(`{"v":2}`))
	path, _ := located(t, s, k2)
	data, _ := os.ReadFile(path)
	data = bytes.Replace(data, []byte(`{"v":2}`), []byte(`{"v":1}`), 1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, _ := Open(dir)
	for _, h := range []*Store{s, fresh} {
		if _, ok := h.Load(k2); ok {
			t.Fatal("record with another key's payload reported as hit")
		}
		mustLoad(t, h, k1, `{"v":1}`)
	}
}

// TestNonHexKeysAreSandboxed: any key string round-trips, and no key
// names a file: the directory holds only the handle's segment.
func TestNonHexKeysAreSandboxed(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	keys := []string{"../../etc/passwd", "short", "UPPER" + hexKey("x")[5:], "", "a b\nc", "\"quoted\" \xff"}
	for _, key := range keys {
		s.Store(key, []byte(`{"v":1}`))
	}
	fresh, _ := Open(dir)
	for _, key := range keys {
		mustLoad(t, s, key, `{"v":1}`)
		mustLoad(t, fresh, key, `{"v":1}`)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 || !strings.HasPrefix(ents[0].Name(), "seg-") || ents[0].IsDir() {
		t.Errorf("store directory holds %v, want one segment", ents)
	}
	if st := s.Stats(); st.WriteErrors != 0 {
		t.Errorf("stats = %+v", st)
	}
	s.Store(strings.Repeat("k", maxHeader), []byte(`{"v":1}`))
	if st := s.Stats(); st.WriteErrors != 1 {
		t.Errorf("a key longer than a header holds: stats = %+v, want a write error", st)
	}
}

// TestOverwriteIsAtomicReplace: storing a key again appends a second
// copy; the key still lists once and the directory holds only the
// handle's one segment, with no temp files.
func TestOverwriteIsAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key := hexKey("rewrite")
	s.Store(key, []byte(`{"v":1}`))
	s.Store(key, []byte(`{"v":1}`)) // immutable records: same payload
	mustLoad(t, s, key, `{"v":1}`)
	if keys := s.Keys(); len(keys) != 1 || keys[0] != key {
		t.Errorf("Keys = %v after writing one key twice", keys)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 || !strings.HasSuffix(ents[0].Name(), ".log") {
		t.Errorf("store directory holds %v, want one segment", ents)
	}
}

// TestNewestIntactCopyWins: of two intact copies the later one loads; a
// later damaged copy leaves the earlier intact one loading.
func TestNewestIntactCopyWins(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	k1, k2 := hexKey("k1"), hexKey("k2")
	s.Store(k1, []byte(`{"v":"old"}`))
	s.Store(k1, []byte(`{"v":"new"}`))
	s.Store(k2, []byte(`{"v":"intact"}`))
	s.Store(k2, []byte(`{"v":"damage"}`))
	path, _ := located(t, s, k2)
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, bytes.Replace(data, []byte("damage"), []byte("DAMAGE"), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, _ := Open(dir)
	mustLoad(t, fresh, k1, `{"v":"new"}`)
	mustLoad(t, fresh, k2, `{"v":"intact"}`)
}

func TestConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	other, _ := Open(dir)
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := hexKey(fmt.Sprintf("k%d", i%8))
			payload := []byte(fmt.Sprintf(`{"v":%d}`, i%8))
			h := s
			if i%2 == 1 {
				h = other
			}
			h.Store(key, payload)
			if got, ok := h.Load(key); !ok || string(got) != string(payload) {
				t.Errorf("concurrent load %d: ok=%v payload=%s", i, ok, got)
			}
			// The other handle sees the record too, at worst after a scan.
			if got, ok := s.Load(key); !ok || string(got) != string(payload) {
				t.Errorf("cross-handle load %d: ok=%v payload=%s", i, ok, got)
			}
		}(i)
	}
	wg.Wait()
	if n := len(s.Keys()); n != 8 {
		t.Errorf("Keys lists %d, want 8 distinct records", n)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}
