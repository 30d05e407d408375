#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout (build cache, module
# cache and binary all under .bench_build/) and runs it from the checkout's
# root with the arguments given. BENCHMARK.json names this script.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/redbud-bench" .)

cd "$root"
exec "$build/redbud-bench" "$@"
