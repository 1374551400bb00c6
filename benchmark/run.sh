#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout (build outputs and the
# Go caches all land in .bench_build/) and runs it from the checkout root, so
# BENCHMARK.json and benchmark/out/ resolve the same way everywhere.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
for v in "${!LAMELLAR_@}"; do unset "$v"; done
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
commit="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
go build -C benchmark -buildvcs=false -ldflags "-X main.commit=$commit" \
	-o "$root/.bench_build/lamellar-benchmark" .
exec "$root/.bench_build/lamellar-benchmark" "$@"
