package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzStoreLoad writes arbitrary bytes as a segment of a fresh store and
// loads key from it. The contract under fuzz: Load never panics, it hits
// exactly when the segment, framed record by record from its start, holds
// an intact record for key — and then returns the payload of the newest
// one — and every other outcome is counted as a miss.
func FuzzStoreLoad(f *testing.F) {
	key := hexKey("fuzzed-record")
	payload := []byte(`{"ipc":1.25,"pair":"505.mcf_r"}`)
	valid := frame(key, payload)
	other := frame(hexKey("other"), payload)
	flipped := bytes.Replace(valid, []byte("1.25"), []byte("9.25"), 1)
	odd := "a b\nc \"d\""

	seeds := []struct {
		seg []byte
		key string
	}{
		{cat(other, valid), key},                         // a valid segment
		{other, key},                                     // only another key
		{cat(other, valid[:len(valid)-10]), key},         // a torn tail
		{flipped, key},                                   // a flipped payload byte
		{nil, key},                                       // empty
		{[]byte("not json at all\x00\xff"), key},         // garbage
		{cat(flipped, valid), key},                       // a duplicate key whose later copy is intact
		{cat(valid, flipped), key},                       // ... whose later copy is damaged
		{cat(valid, frame(key, []byte(`{"v":2}`))), key}, // two intact copies
		{bytes.Replace(valid, []byte(" 31\n"), []byte(" 9999\n"), 1), key}, // a length past EOF
		{frame(odd, payload), odd}, // a key containing a space and a newline
		{frame(key, nil), key},     // an empty payload
		{[]byte(strings.Repeat("[", 20000)), key},
	}
	for _, sd := range seeds {
		f.Add(sd.seg, sd.key)
	}

	f.Fuzz(func(t *testing.T, data []byte, key string) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-0-fuzz.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		payload, ok := s.Load(key)
		st := s.Stats()

		want, intact := newestIntact(data, key)
		if ok != intact {
			t.Fatalf("Load hit=%v, want %v for key %q in segment %q", ok, intact, key, data)
		}
		if ok {
			if !bytes.Equal(payload, want) {
				t.Fatalf("hit returned %q, newest intact payload %q", payload, want)
			}
			if st.Hits != 1 || st.Misses != 0 {
				t.Fatalf("hit counted as %+v", st)
			}
		} else if payload != nil || st.Misses != 1 || st.Hits != 0 {
			t.Fatalf("miss returned %q and counted as %+v", payload, st)
		}
	})
}

// newestIntact is the reference reading of a segment: walk its records
// from the start, each a header line `"<key>" <sha256 hex> <length>` of at
// most maxHeader bytes, then the payload and a newline, stopping at the
// first one that does not frame, and return the payload of the last
// intact record for key.
func newestIntact(seg []byte, key string) ([]byte, bool) {
	var payload []byte
	found := false
	for len(seg) > 0 {
		line, rest, ok := bytes.Cut(seg, []byte("\n"))
		if !ok || len(line) >= maxHeader {
			break
		}
		q, err := strconv.QuotedPrefix(string(line))
		if err != nil || q[0] != '"' {
			break
		}
		k, _ := strconv.Unquote(q)
		fields := strings.Split(string(line[len(q):]), " ")
		if len(fields) != 3 || fields[0] != "" {
			break
		}
		n, err := strconv.ParseUint(fields[2], 10, 32)
		if err != nil || uint64(len(rest)) < n+1 || rest[n] != '\n' {
			break
		}
		if k == key && fields[1] == hex.EncodeToString(sha256Of(rest[:n])) {
			payload, found = rest[:n], true
		}
		seg = rest[n+1:]
	}
	return payload, found
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

func sha256Of(b []byte) []byte {
	sum := sha256.Sum256(b)
	return sum[:]
}

// FuzzPackLoad writes arbitrary bytes as a pack of a fresh store and
// loads key from it, then lists the keys. The contract under fuzz: neither
// panics, a hit returns a payload that some intact record for key in the
// bytes carries, and every other outcome is counted as a miss.
func FuzzPackLoad(f *testing.F) {
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = hexKey(fmt.Sprint("pack", i))
	}
	pack := buildPack(f, keys)
	flipped := bytes.Replace(pack, []byte(`{"k":"`+keys[3]), []byte(`{"K":"`+keys[3]), 1)
	badCount := bytes.Clone(pack)
	badCount[0] = 3
	for _, sd := range []struct {
		pack []byte
		key  string
	}{
		{pack, keys[3]},               // a valid pack
		{pack, hexKey("absent")},      // ... without the key
		{flipped, keys[3]},            // a flipped payload byte
		{pack[:len(pack)/2], keys[3]}, // cut short inside the records
		{pack[:20], keys[3]},          // cut short inside the table
		{badCount, keys[3]},           // a bucket count that is not a power of two
		{nil, keys[3]},                // empty
		{[]byte("not a pack\x00\xff"), keys[3]},
	} {
		f.Add(sd.pack, sd.key)
	}

	f.Fuzz(func(t *testing.T, data []byte, key string) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "pack-0-fuzz.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		payload, ok := s.Load(key)
		st := s.Stats()
		if ok {
			if !bytes.Contains(data, frame(key, payload)) {
				t.Fatalf("hit returned %q, which no intact record for %q carries", payload, key)
			}
			if st.Hits != 1 || st.Misses != 0 {
				t.Fatalf("hit counted as %+v", st)
			}
		} else if payload != nil || st.Misses != 1 || st.Hits != 0 {
			t.Fatalf("miss returned %q and counted as %+v", payload, st)
		}
		s.Keys()
	})
}

// buildPack stores a record for each key, one segment per record, ages
// the segments and returns the pack a fresh handle's miss compacts them
// into.
func buildPack(tb testing.TB, keys []string) []byte {
	tb.Helper()
	dir := tb.TempDir()
	for _, k := range keys {
		w, err := Open(dir)
		if err != nil {
			tb.Fatal(err)
		}
		w.Store(k, []byte(`{"k":"`+k+`"}`))
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	old := time.Now().Add(-2 * quietAge)
	for _, p := range segs {
		if err := os.Chtimes(p, old, old); err != nil {
			tb.Fatal(err)
		}
	}
	r, _ := Open(dir)
	r.Load(hexKey("absent"))
	packs, _ := filepath.Glob(filepath.Join(dir, "pack-*.log"))
	if len(packs) != 1 {
		tb.Fatalf("compaction left packs %v, want one", packs)
	}
	data, err := os.ReadFile(packs[0])
	if err != nil {
		tb.Fatal(err)
	}
	return data
}
