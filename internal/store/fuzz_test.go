package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// FuzzStoreLoad writes arbitrary bytes at a record's path and loads it.
// The contract under fuzz: Load never panics, it hits only when the
// bytes decode to an envelope whose key is the requested key and whose
// SHA-256 matches the non-empty payload it returns (and always then),
// and every other outcome is counted as a miss.
func FuzzStoreLoad(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	key := hexKey("fuzzed-record")
	path := s.path(key)
	s.Store(key, []byte(`{"ipc":1.25,"pair":"505.mcf_r"}`))
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	s.Store(hexKey("other"), []byte(`{"ipc":1.25,"pair":"505.mcf_r"}`))
	otherKey, err := os.ReadFile(s.path(hexKey("other")))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(otherKey)
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Replace(valid, []byte("1.25"), []byte("9.25"), 1))
	f.Add([]byte{})
	f.Add([]byte("not json at all\x00\xff"))
	f.Add([]byte(`{"key":"` + key + `","sha256":"` + hex.EncodeToString(sha256Of(nil)) + `","payload":""}`))
	f.Add([]byte(`{"key":"` + key + `","sha256":"` + hex.EncodeToString(sha256Of([]byte("null"))) + `","payload":null}`))
	f.Add([]byte(strings.Repeat("[", 20000)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := s.Stats()
		payload, ok := s.Load(key)
		after := s.Stats()

		var env envelope
		intact := json.Unmarshal(data, &env) == nil && env.Key == key &&
			len(env.Payload) > 0 && env.SHA256 == hex.EncodeToString(sha256Of(env.Payload))
		if ok != intact {
			t.Fatalf("Load hit=%v, want %v for record %q", ok, intact, data)
		}
		if ok {
			if !bytes.Equal(payload, env.Payload) {
				t.Fatalf("hit returned %q, envelope payload %q", payload, env.Payload)
			}
			if after.Hits != before.Hits+1 || after.Misses != before.Misses {
				t.Fatalf("hit counted as %+v -> %+v", before, after)
			}
		} else if payload != nil || after.Misses != before.Misses+1 || after.Hits != before.Hits {
			t.Fatalf("miss returned %q and counted as %+v -> %+v", payload, before, after)
		}
	})
}

func sha256Of(b []byte) []byte {
	sum := sha256.Sum256(b)
	return sum[:]
}
