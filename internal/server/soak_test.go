package server_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/store"
)

const (
	// soakJobs is how many campaigns the soak serves after warm-up.
	soakJobs = 2000
	// soakPairs is how many pairs one soak campaign names (a whole
	// mini-suite and size where that has fewer), as serve-warm's closed
	// loop does.
	soakPairs = 24
	// soakBytesPerJob bounds the live heap a finished soak campaign
	// may add. A campaign that kept decoded result copies, its resolved
	// pairs and a manifest with render-buffer slack measured about
	// 16 KiB; one holding record slices, its spec and an exact-length
	// manifest measures about 4 KiB on the same campaigns.
	soakBytesPerJob = 8 << 10
)

// TestServeSoakBoundedRetention serves a few thousand ?wait=1 campaigns
// from a memory cache over a pre-populated store, through the real
// core.Characterize, and bounds the live heap each finished campaign
// leaves behind: a finished job may keep its spec, counters, manifest
// and one slice header per result, not copies of the results. Every
// job's GET /v1/campaigns/{id} afterwards is byte-identical to its
// ?wait=1 reply.
func TestServeSoakBoundedRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("serves thousands of campaigns")
	}
	const window = 2000
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var (
		all   []profile.Pair
		specs []server.CampaignSpec
	)
	for _, mini := range []struct {
		name  string
		suite profile.Suite
	}{{"rate-int", profile.RateInt}, {"rate-fp", profile.RateFP}, {"speed-int", profile.SpeedInt}, {"speed-fp", profile.SpeedFP}} {
		var apps []*profile.Profile
		for _, app := range profile.CPU2017() {
			if app.Suite == mini.suite {
				apps = append(apps, app)
			}
		}
		for _, size := range []profile.InputSize{profile.Test, profile.Train, profile.Ref} {
			pairs := profile.ExpandSuite(apps, size)
			all = append(all, pairs...)
			spec := server.CampaignSpec{Suite: "cpu2017", Mini: mini.name, Size: size.String(), Instructions: window}
			for _, p := range pairs[:min(soakPairs, len(pairs))] {
				spec.Pairs = append(spec.Pairs, p.Name())
			}
			specs = append(specs, spec)
		}
	}
	if _, err := core.Characterize(all, core.Options{Instructions: window, Cache: sched.NewCache(), Store: st}); err != nil {
		t.Fatalf("pre-populating the store: %v", err)
	}
	bodies := make([][]byte, len(specs))
	for i := range specs {
		if bodies[i], err = json.Marshal(specs[i]); err != nil {
			t.Fatal(err)
		}
	}

	s := server.New(server.Config{Workers: 2, QueueDepth: 8,
		Characterize: core.Options{Instructions: window, Cache: sched.NewCache(), Store: st}})
	t.Cleanup(s.Drain)
	h := s.Handler()
	serve := func(method, target string, body []byte) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Errorf("%s %s: %d %s", method, target, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	submit := func(spec []byte) (id string, reply []byte) {
		reply = serve(http.MethodPost, "/v1/campaigns?wait=1", spec)
		var status struct {
			ID, Status string
			Results    []json.RawMessage
		}
		if err := json.Unmarshal(reply, &status); err != nil || status.Status != server.StatusDone || len(status.Results) == 0 {
			t.Errorf("campaign %s: %v %s", status.ID, err, reply)
		}
		return status.ID, reply
	}
	// Warm-up: one campaign per spec moves every record into the memory
	// tier, so the soak measures what the jobs keep, not the cache.
	for _, b := range bodies {
		submit(b)
	}
	if t.Failed() {
		t.FailNow()
	}

	ids := make([]string, soakJobs)
	digests := make([][sha256.Size]byte, soakJobs)
	before := liveHeap()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < soakJobs; i += 2 {
				id, reply := submit(bodies[i%len(bodies)])
				ids[i], digests[i] = id, sha256.Sum256(reply)
			}
		}(c)
	}
	wg.Wait()
	after := liveHeap()
	if t.Failed() {
		t.FailNow()
	}
	perJob := (float64(after) - float64(before)) / soakJobs
	t.Logf("live heap %.1f -> %.1f MiB over %d campaigns: %.0f B per finished job (bound %d)",
		float64(before)/(1<<20), float64(after)/(1<<20), soakJobs, perJob, soakBytesPerJob)
	if perJob > soakBytesPerJob {
		t.Errorf("each finished campaign keeps %.0f B of live heap, want at most %d", perJob, soakBytesPerJob)
	}

	for i, id := range ids {
		if got := sha256.Sum256(serve(http.MethodGet, "/v1/campaigns/"+id, nil)); got != digests[i] {
			t.Fatalf("GET %s differs from its ?wait=1 reply", id)
		}
	}
}

// liveHeap returns the heap bytes still reachable after a full
// collection (two, so sync.Pool victims are released as well).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
