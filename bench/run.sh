#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source into
# .bench_build/ at the checkout root (go's build cache and temp files too, so
# nothing is written outside the checkout) and runs it with the driver's
# arguments. The binary starts no other process.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -C bench -o "$out/rawdb-bench" .
exec "$out/rawdb-bench" -dir "$out" "$@"
