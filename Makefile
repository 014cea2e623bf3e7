GO ?= go

.PHONY: build vet test race bench loc fuzz-seed bench-smoke analytic-smoke serve-smoke serve-soak metrics-smoke fleet-smoke sweep-smoke rate-smoke race-fanout race-kernel ci

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
# TestCodecAllocs in internal/core.
bench-smoke:
	$(GO) test -run='^$$' -bench=Kernel -benchtime=1x .
	$(GO) test -run='^$$' -bench=Kernel -benchtime=1x ./internal/machine
	$(GO) test -run='^$$' -bench=CampaignStatusCodec -benchtime=1x -benchmem ./internal/server
	$(GO) test -run='^TestKernelBenchBaselines$$' -count=1 .

# The analytic tier's accuracy gate, forced fresh (-count=1): the
# per-family tolerance harness comparing analytic predictions against
# exact 16Mi-instruction baselines (skipped under -short), and the
# profile-memo gate requiring every cell predicted from a shared stream
# profile to be byte-identical to a fresh analytic.Run.
analytic-smoke:
	$(GO) test -run='^TestAnalyticTolerance$$' -count=1 ./internal/analytic
	$(GO) test -run='^TestAnalyticProfileMemoEquivalence$$' -count=1 ./internal/core

# Build the real specserved binary, run a campaign over HTTP, restart on
# the same store and assert the repeat simulates zero pairs, then check
# the SIGTERM drain path.
serve-smoke:
	$(GO) test -run='^TestServeSmoke$$|^TestServeSmokeDrainsInFlight$$' -count=1 ./cmd/specserved

# Serve a few thousand ?wait=1 campaigns from an in-process specserved
# over a pre-populated store and bound the live heap each finished
# campaign keeps (it holds shared result records, not decoded copies);
# every job's GET afterwards must be byte-identical to its ?wait=1 reply.
serve-soak:
	$(GO) test -run='^TestServeSoakBoundedRetention$$' -count=1 ./internal/server

# Scrape the binary's /metrics after a live campaign and assert the
# Prometheus text exposition carries the tier-split pair counters, the
# stage/request histograms and the queue, job (by kind and state) and
# cache-entry gauges, and that /metrics/expvar is gone (404): /metrics
# is the server's only metrics exposition.
metrics-smoke:
	$(GO) test -run='^TestServeSmokeMetrics$$' -count=1 ./cmd/specserved

# Boot a real 2-worker fleet plus coordinator from the built binaries,
# drive it with specload under SLO gates, and assert the sharded run is
# bit-identical to a direct single-worker run. The baseline gate then
# checks the serving trajectory recorded in BENCH_serve.json against its
# floors — recorded numbers, so a loaded machine can't flake it.
fleet-smoke:
	$(GO) test -run='^TestFleetSmoke$$' -count=1 ./cmd/specserved
	$(GO) test -run='^TestServeBenchBaselines$$' -count=1 .

# Run a 2x2x2 design-space sweep against the built specserved binary,
# restart it on the same store, re-run the identical sweep and assert it
# simulates zero cells with a byte-identical knee report, then drive the
# grid through the specsweep CLI.
sweep-smoke:
	$(GO) test -run='^TestSweepSmoke$$' -count=1 ./cmd/specserved

# Run an N=4 rate-mode campaign against the built specserved binary,
# byte-identical to a direct library run on the shared-L3 kernel, then
# restart it on the same store and assert the campaign is served with
# zero pairs simulated.
rate-smoke:
	$(GO) test -run='^TestRateSmoke$$' -count=1 ./cmd/specserved

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
# parallel kernel's windows do.
race-kernel:
	$(GO) test -race -short -run='^TestParallel' -count=1 ./internal/machine
	$(GO) test -race -short -run='^TestCheckpoint' -count=1 ./internal/synth

ci: build vet test race fuzz-seed bench-smoke analytic-smoke serve-smoke serve-soak metrics-smoke fleet-smoke sweep-smoke rate-smoke race-fanout race-kernel
