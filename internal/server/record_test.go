package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/store"
)

// TestRecordOrigins: a done campaign's results are the cache's records
// spliced into the status, whichever way each record reached the cache
// — loaded from the store, already in memory after a store hit,
// encoded by the write-through of a fresh simulation, encoded on first
// request by a cache with no backend, or gathered from a fleet worker.
// Every spliced record is the JSON WriteJSON writes for its decoded
// value, equals the direct library result's, and is the record the
// server's cache holds under the pair's key.
func TestRecordOrigins(t *testing.T) {
	const window = 3000
	spec := server.CampaignSpec{Suite: "cpu2017", Mini: "rate-int", Size: "test", Instructions: window}
	pairs, err := server.ResolveSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Characterize(pairs, core.Options{Instructions: window})
	if err != nil {
		t.Fatal(err)
	}
	keys := core.CampaignKeys(pairs, core.Options{Instructions: window})
	populated, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Characterize(pairs, core.Options{Instructions: window, Cache: sched.NewCache(), Store: populated}); err != nil {
		t.Fatal(err)
	}
	empty, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	start := func(cfg server.Config) string {
		s := server.New(cfg)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(s.Drain)
		return ts.URL
	}
	overStore, withBackend := sched.NewCache(), sched.NewCache()
	overStoreURL := start(server.Config{Characterize: core.Options{Cache: overStore, Store: populated}})
	workers, _ := startWorkers(t, 1, core.Options{})

	n := len(pairs)
	for _, tc := range []struct {
		name  string
		url   string
		cache *sched.Cache // the server's cache, when the test holds it
		// want is the progress the origin shows: cache hits, store
		// hits, remote pairs.
		want [3]int
	}{
		{"store hit", overStoreURL, overStore, [3]int{n, n, 0}},
		{"memory hit after a store hit", overStoreURL, overStore, [3]int{n, 0, 0}},
		{"fresh simulation with a backend",
			start(server.Config{Characterize: core.Options{Cache: withBackend, Store: empty}}), withBackend, [3]int{0, 0, 0}},
		{"fresh simulation without a backend", start(server.Config{}), nil, [3]int{0, 0, 0}},
		{"fleet-gathered", start(server.Config{Fleet: workers}), nil, [3]int{0, 0, n}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(tc.url+"/v1/campaigns?wait=1", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var st struct {
				Status   string
				Progress server.ProgressStatus
				Results  []json.RawMessage
			}
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			if st.Status != server.StatusDone || len(st.Results) != n {
				t.Fatalf("status %s with %d results, want done with %d", st.Status, len(st.Results), n)
			}
			p := st.Progress
			if got := [3]int{p.CacheHits, p.StoreHits, p.Remote}; got != tc.want {
				t.Fatalf("cache hits, store hits, remote = %v, want %v", got, tc.want)
			}
			for i, rec := range st.Results {
				v, err := core.CharacteristicsCodec{}.Decode(rec)
				if err != nil {
					t.Fatalf("%s: %v", pairs[i].Name(), err)
				}
				c := v.(core.Characteristics)
				if enc, err := c.AppendJSON(nil); err != nil || !bytes.Equal(rec, enc) {
					t.Fatalf("%s: spliced record is not WriteJSON of its value (%v):\n got %s\nwant %s", pairs[i].Name(), err, rec, enc)
				}
				if want, _ := direct[i].AppendJSON(nil); !bytes.Equal(rec, want) {
					t.Fatalf("%s: spliced record differs from the direct library result", pairs[i].Name())
				}
				if tc.cache == nil {
					continue
				}
				if held, err := tc.cache.Record(keys[i], core.CharacteristicsCodec{}); err != nil || !bytes.Equal(rec, held) {
					t.Fatalf("%s: spliced record is not the cache's record (%v)", pairs[i].Name(), err)
				}
			}
		})
	}
}
