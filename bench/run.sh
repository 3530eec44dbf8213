#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (and, through it,
# cmd/cliffhangerd) from the checked-out tree and runs it. Every build
# artefact, the Go build cache and the Go temp dir live under .bench_build/
# in the checkout, so a run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=
go build -C "$root/bench" -o "$out/bench" .
BENCH_ROOT="$root" exec "$out/bench" "$@"
