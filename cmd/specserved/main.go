// Command specserved serves characterizations over HTTP: campaigns are
// submitted as JSON, run on the bounded scheduler behind a memoizing
// cache (optionally backed by a persistent content-addressed store), and
// streamed back with SSE progress. A campaign submitted twice — even
// across restarts, with -cache-dir — returns bit-identical results, the
// repeat served from the store without simulating a single uop.
//
// Usage:
//
//	specserved [-addr :8217] [-cache-dir DIR] [-workers 2] [-queue 16]
//	           [-parallelism N] [-n instructions] [-mux slots]
//	           [-drain-grace 30s]
//	           [-coordinator URL,URL,...] [-fleet-chunk 4]
//
// With -coordinator, this instance simulates nothing itself: each
// campaign's pairs are scattered across the listed worker specserved
// instances by consistent hash of their result-cache content keys,
// gathered back through the typed client (dead workers are evicted and
// their chunks resubmitted to survivors), and written through the
// coordinator's own cache tiers — so a sharded campaign produces
// results and store records bit-identical to a single-node run. The
// fleet must be homogeneous (same machine model and -mux base flags on
// every worker); the instruction window and sampling knob are forwarded
// explicitly per chunk.
//
// Endpoints: POST/GET/DELETE /v1/campaigns[/{id}], SSE at
// /v1/campaigns/{id}/events, the JSONL run manifest at
// /v1/campaigns/{id}/manifest, the same shape again under /v1/sweeps
// for design-space sweep jobs (cartesian machine-config grids screened
// at a cheap fidelity tier with Pareto-frontier escalation — see the
// specsweep command), GET /healthz, Prometheus text metrics at
// GET /metrics. See the README's
// "Serving characterizations" and "Sweeping the design space"
// walkthroughs.
//
// SIGINT/SIGTERM drain gracefully: admission stops (429/503), queued
// campaigns are reported cancelled, in-flight campaigns finish (or are
// cancelled after -drain-grace), then the listener closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	speckit "repro"
	"repro/internal/cliflags"
	"repro/internal/fleet"
	"repro/internal/server"
)

func main() {
	addrFlag := flag.String("addr", ":8217", "listen address")
	cacheDirFlag := flag.String("cache-dir", "", "persistent result-store directory: campaign results are written as checksummed content-addressed records and repeated campaigns (same models, machine, options) are served from it bit-identically, across restarts (empty = in-memory cache only)")
	workersFlag := flag.Int("workers", 2, "campaigns run concurrently")
	queueFlag := flag.Int("queue", 16, "campaign queue depth; submissions beyond it get 429")
	parFlag := flag.Int("parallelism", 0, "pair simulations per campaign (0 = NumCPU)")
	nFlag := flag.Uint64("n", 300000, "default simulated instructions per pair (overridable per request)")
	muxFlag := flag.Int("mux", 0, "default perf counter-multiplex slots, 0 = exact counters (overridable per request)")
	drainFlag := flag.Duration("drain-grace", 30*time.Second, "how long a drain waits for in-flight campaigns before cancelling them (0 = wait until they finish)")
	coordFlag := flag.String("coordinator", "", "comma-separated worker specserved URLs: run as a fleet coordinator, scattering campaigns across them instead of simulating locally")
	chunkFlag := flag.Int("fleet-chunk", 4, "pairs per scattered sub-campaign in coordinator mode")
	flag.Parse()

	if err := run(*addrFlag, *cacheDirFlag, *workersFlag, *queueFlag, *parFlag, *nFlag, *muxFlag, *drainFlag, *coordFlag, *chunkFlag); err != nil {
		fmt.Fprintln(os.Stderr, "specserved:", err)
		os.Exit(1)
	}
}

func run(addr, cacheDir string, workers, queue, parallelism int, n uint64, mux int, drainGrace time.Duration, coordinator string, fleetChunk int) error {
	ctx, stop := cliflags.SignalContext()
	defer stop()

	opt := speckit.Options{
		Instructions:   n,
		Parallelism:    parallelism,
		MultiplexSlots: mux,
		Cache:          speckit.NewCache(),
	}
	if cacheDir != "" {
		st, err := speckit.OpenStore(cacheDir)
		if err != nil {
			return err
		}
		opt.Store = st
		fmt.Fprintf(os.Stderr, "specserved: persistent result store at %s\n", st.Dir())
	}

	cfg := server.Config{
		Workers:      workers,
		QueueDepth:   queue,
		DrainGrace:   drainGrace,
		FleetChunk:   fleetChunk,
		Characterize: opt,
	}
	if coordinator != "" {
		var urls []string
		for _, u := range strings.Split(coordinator, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			return fmt.Errorf("-coordinator lists no worker URLs")
		}
		cfg.Fleet = fleet.Workers(urls)
		fmt.Fprintf(os.Stderr, "specserved: coordinating a fleet of %d workers\n", len(urls))
	}
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The smoke test (and humans starting with -addr :0) parse this line
	// for the bound address.
	fmt.Printf("specserved listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop() // a second signal kills immediately
		fmt.Fprintln(os.Stderr, "specserved: signal received, draining")
		srv.Drain()
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "specserved: drained")
		return nil
	}
}
