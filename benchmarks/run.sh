#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the Go tool writes (build cache, module
# cache, temporary files, its own configuration) and the binary go under
# .bench_build/ at the checkout root, so a run reads and writes nothing
# outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C "$root/benchmarks" build -o "$build/e2e" ./e2e
cd "$root"
exec "$build/e2e" "$@"
