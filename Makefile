GO ?= go

.PHONY: build vet test race bench loc fuzz-seed bench-smoke bench-fresh analytic-smoke serve-smoke serve-soak race-fanout race-kernel ci

build:
	$(GO) build ./...

# perfbench is a module of its own, so ./... does not reach it; vetting
# it here makes an API change that breaks the benchmark fail CI.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Count the non-test Go lines outside perfbench/ and the benchmark's
# build and run directories: the size figure ROADMAP item 2 tracks.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './perfbench/*' \
		-not -path './.bench_build/*' -not -path './.bench_out/*' | xargs cat | wc -l

# Run every fuzz target over its seed corpus (no fuzzing engine time).
# The packages are found from their func Fuzz declarations (outside
# perfbench/ and hidden directories), so a new target cannot be left out.
FUZZ_PKGS = $(sort $(patsubst %/,%,$(dir $(shell grep -rl --include='*_test.go' \
	--exclude-dir=perfbench --exclude-dir='.?*' '^func Fuzz' .))))

fuzz-seed:
	$(GO) test -run='^Fuzz' $(FUZZ_PKGS)

# One-iteration pass over the kernel benchmarks: catches benchmarks that
# no longer build or crash without paying for stable timings. The
# baseline gate then checks the ratios recorded in BENCH_kernel.json
# against the acceptance floors (batched >=1.5x per-uop, sampled >=3x
# exact, analytic >=100x exact, parallel critical path >=2x sequential)
# — recorded numbers, so a loaded machine can't flake it. The status
# codec benchmark (a 24-result campaign response, encode and decode)
# gets the same one-iteration pass; its allocation gate is
# TestCodecAllocs in internal/core. So do the store's record write and
# load (hit and miss) benchmarks.
bench-smoke:
	$(GO) test -run='^$$' -bench=Kernel -benchtime=1x .
	$(GO) test -run='^$$' -bench=Kernel -benchtime=1x ./internal/machine
	$(GO) test -run='^$$' -bench=CampaignStatusCodec -benchtime=1x -benchmem ./internal/server
	$(GO) test -run='^$$' -bench=Store -benchtime=1x -benchmem ./internal/store
	$(GO) test -run='^TestKernelBenchBaselines$$' -count=1 .

# Report-only freshness check of the kernel ledger: run
# BENCH_kernel.json's two regenerate commands and print each gated ratio
# fresh beside the recorded one and its floor. It gates nothing (a
# loaded machine would make a live gate flaky) and is not part of ci; a
# ledger that no longer holds shows here before anyone re-records it.
# The ratio benchmarks run twice, as recorded and at -cpu 1: the exact
# denominators overlap synthesis on a second CPU and the numerators
# cannot, so only the one-CPU column measures the algorithms alone.
bench-fresh:
	$(GO) test -run='^$$' -bench='KernelSynth|KernelCache|KernelSampled|KernelParallel|KernelAnalytic' -benchtime=50x . > .bench_fresh.txt
	$(GO) test -run='^$$' -bench=KernelMachine -benchtime=50x ./internal/machine >> .bench_fresh.txt
	$(GO) test -run='^$$' -bench='KernelSampled|KernelParallel|KernelAnalytic' -benchtime=50x -cpu=1 . > .bench_fresh1.txt
	$(GO) test -run='^$$' -bench=KernelMachine -benchtime=50x -cpu=1 ./internal/machine >> .bench_fresh1.txt
	$(GO) test -run='^TestKernelBenchFresh$$' -count=1 -v . -args -kernel.fresh=.bench_fresh.txt -kernel.fresh1=.bench_fresh1.txt

# The analytic tier's accuracy gate, forced fresh (-count=1): the
# per-family tolerance harness comparing analytic predictions against
# exact 16Mi-instruction baselines (skipped under -short), and the
# profile-memo gate requiring every cell predicted from a shared stream
# profile to be byte-identical to a fresh analytic.Run.
analytic-smoke:
	$(GO) test -run='^TestAnalyticTolerance$$' -count=1 ./internal/analytic
	$(GO) test -run='^TestAnalyticProfileMemoEquivalence$$' -count=1 ./internal/core

# Boot the real binaries (specserved, specload and specsweep, each built
# once for the whole run) and drive them over HTTP:
# - serve: run a campaign, restart on the same store and assert the
#   repeat simulates zero pairs, then check the SIGTERM drain path;
# - metrics: scrape /metrics after a live campaign for the tier-split
#   pair counters, the stage/request histograms and the queue, job (by
#   kind and state) and cache-entry gauges, and check /metrics/expvar
#   is gone (404);
# - fleet: a 2-worker fleet plus coordinator, driven by specload under
#   SLO gates, bit-identical to a direct single-worker run;
# - sweep: a 2x2x2 design-space sweep, restarted on the same store, must
#   simulate zero cells with a byte-identical knee report, and the grid
#   runs through the specsweep CLI too;
# - rate: an N=4 rate-mode campaign byte-identical to a direct library
#   run on the shared-L3 kernel, then served after a restart with zero
#   pairs simulated.
# The baseline gate then checks the serving trajectory recorded in
# BENCH_serve.json against its floors — recorded numbers, so a loaded
# machine can't flake it.
serve-smoke:
	$(GO) test -run='Smoke' -count=1 ./cmd/specserved
	$(GO) test -run='^TestServeBenchBaselines$$' -count=1 .

# Serve a few thousand ?wait=1 campaigns from an in-process specserved
# over a pre-populated store and bound the live heap each finished
# campaign keeps (it holds shared result records, not decoded copies);
# every job's GET afterwards must be byte-identical to its ?wait=1 reply.
serve-soak:
	$(GO) test -run='^TestServeSoakBoundedRetention$$' -count=1 ./internal/server

# Race-check the fan-out path specifically: the coordinator/dispatcher,
# the typed client's retry loop, the registry the handlers hammer, and
# the shared-L3 rate kernel's core interleaving.
race-fanout:
	$(GO) test -race ./internal/server/... ./internal/sched/... ./internal/client/...
	$(GO) test -race -short -run='^TestRunShared|^TestRate|^TestScenario|^TestTopology' -count=1 ./internal/machine ./internal/core

# Race-check the intra-pair parallel kernel specifically: the
# equivalence, determinism, fallback, tolerance and stats tests spawn
# real worker pools at K in {2,3,4,8} (short stream lengths under
# -short keep it fast). The checkpoint tests share one stream's
# checkpoint table between concurrently skipping generators, as the
# parallel kernel's windows do. The prefetcher test runs concurrent
# Run, RunParallel and RunShared calls on one configuration with each
# built-in prefetcher, whose state every hierarchy must own. The feed
# tests end every batched mode normally, on an exhausted source, on a
# cancelled context and on a bad config while each core's producer
# goroutine fills its ring, and run two Runs at once. The bridge-memo
# test runs four sampled runs at once on generators sharing one stream's
# checkpoint table, so they record and restore warmed bridge ends
# concurrently.
race-kernel:
	$(GO) test -race -short -run='^TestParallel|^TestPrefetcherRace|^TestFeed|^TestBridgeMemo' -count=1 ./internal/machine
	$(GO) test -race -short -run='^TestCheckpoint' -count=1 ./internal/synth

ci: build vet test race fuzz-seed bench-smoke analytic-smoke serve-smoke serve-soak race-fanout race-kernel
