GO ?= go

.PHONY: build vet test race bench fuzz-seed bench-smoke analytic-smoke serve-smoke metrics-smoke fleet-smoke sweep-smoke rate-smoke race-fanout race-kernel ci

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

# Run every fuzz target over its seed corpus (no fuzzing engine time).
fuzz-seed:
	$(GO) test -run='^Fuzz' ./internal/cache ./internal/synth ./internal/machine ./internal/rdist ./internal/core ./internal/server

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

# Scrape the binary's /metrics during a live campaign and assert the
# Prometheus text exposition carries the tier-split pair counters, the
# stage/request histograms and the server gauges.
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
# restart it on the same store, and assert both the flat and structured
# scenario spellings are served with zero pairs simulated, byte-identical
# to a direct library run on the shared-L3 kernel.
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
# -short keep it fast).
race-kernel:
	$(GO) test -race -short -run='^TestParallel' -count=1 ./internal/machine

ci: build vet test race fuzz-seed bench-smoke analytic-smoke serve-smoke metrics-smoke fleet-smoke sweep-smoke rate-smoke race-fanout race-kernel
