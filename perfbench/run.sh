#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 25 --trace 0
#
# Build outputs and the Go build cache live under .bench_build/ and run
# artifacts (result files, span JSONL, scratch stores) under .bench_out/,
# both inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must exist)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/go-mod"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOMAXPROCS=2

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
