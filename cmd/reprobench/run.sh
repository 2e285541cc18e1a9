#!/usr/bin/env bash
# Builds reprobench inside the checkout and runs it with the given flags,
# from the repository root. The Go build cache, GOPATH and temporary files
# stay under .bench_build, so the benchmark writes nothing outside the
# checkout.
set -euo pipefail
cd "$(dirname "$0")/../.."
out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" GOTMPDIR="$PWD/$out/tmp" GOTOOLCHAIN=local GOENV=off
go build -o "$out/reprobench" ./cmd/reprobench
exec "$out/reprobench" "$@"
