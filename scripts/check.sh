#!/bin/sh
# check.sh — the repo's full verification gate: vet, build, and the whole
# test suite under the race detector. Run from the repo root.
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

# Every Go source file, testdata fixtures included, must be gofmt-clean.
# Dot directories (.git, the benchmark's .bench_build) are skipped.
echo "==> gofmt -l"
unformatted=$(find . -path './.*' -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> simlint ./... (determinism & invariant rules, see LINT.md)"
go run ./cmd/simlint -baseline lint_baseline.json ./...

# Every //lint:ignore and //lint:exempt-field is a standing claim that a
# diagnostic is a false positive. The -baseline gate above fails the run
# if the counts drift from the committed lint_baseline.json (regenerate
# with -write-baseline when a change is intended); the census below keeps
# the individual sites visible in review.
echo "==> simlint suppression & exemption census"
go run ./cmd/simlint -suppressions ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

# The scenario-store contract: figure artifacts are byte-identical with
# the cache off, cold, and warm, at any worker count, and with
# warm-checkpoint forking on (the default) or off. Warm runs must not
# re-simulate and forked runs must not re-warm, so they are also the
# fast paths — but identity, not speed, is what gates the merge.
echo "==> figure byte-identity: cache off / cold / warm / no-ckpt-fork"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/figures" ./cmd/figures
"$tmp/figures" -fig all -quick -parallel 8 -no-cache              >"$tmp/off.txt"
"$tmp/figures" -fig all -quick -parallel 8 -cache-dir "$tmp/blobs" >"$tmp/cold.txt"
"$tmp/figures" -fig all -quick -parallel 1 -cache-dir "$tmp/blobs" >"$tmp/warm.txt"
"$tmp/figures" -fig all -quick -parallel 8 -no-ckpt-fork           >"$tmp/nofork.txt"
cmp "$tmp/off.txt" "$tmp/cold.txt"
cmp "$tmp/cold.txt" "$tmp/warm.txt"
cmp "$tmp/cold.txt" "$tmp/nofork.txt"

# The absolute contract: the stock full artifact is byte-identical to the
# committed figures_output.txt. The comparisons above only check runs
# against each other, so a drift in simulated output would pass them.
echo "==> figure artifact: stock -fig all vs committed figures_output.txt"
"$tmp/figures" -fig all >"$tmp/stock.txt"
cmp "$tmp/stock.txt" figures_output.txt

# The device-engine contract: the devcross study (DAE + loop-accelerator
# families, engine schedules, DeviceKey-cached runs) is byte-identical
# with the cache off, cold, and warm.
echo "==> devcross byte-identity: cache off / cold / warm"
"$tmp/figures" -fig devcross -quick -parallel 8 -no-cache                 >"$tmp/dev-off.txt"
"$tmp/figures" -fig devcross -quick -parallel 8 -cache-dir "$tmp/devblobs" >"$tmp/dev-cold.txt"
"$tmp/figures" -fig devcross -quick -parallel 1 -cache-dir "$tmp/devblobs" >"$tmp/dev-warm.txt"
cmp "$tmp/dev-off.txt" "$tmp/dev-cold.txt"
cmp "$tmp/dev-cold.txt" "$tmp/dev-warm.txt"

# The static-prune contract: the flag is opt-in, so a run with
# -static-prune explicitly disabled must be byte-identical to a run
# where the flag was never mentioned (the stock artifact above).
echo "==> figure byte-identity: -static-prune=false vs flag absent"
"$tmp/figures" -fig all -quick -parallel 8 -no-cache -static-prune=false >"$tmp/pruneoff.txt"
cmp "$tmp/off.txt" "$tmp/pruneoff.txt"

# The scenario-service contract: a spawned loopback daemon survives the
# three-phase load mix with zero request errors, and the duplicate-heavy
# mix beats per-client direct execution by at least 5x aggregate
# throughput (cross-client coalescing + shared store doing their job).
echo "==> scenariod smoke: spawned daemon, duplicate-heavy >= 5x direct"
go run ./cmd/scenarioload -spawn -quick -min-speedup 5

echo "OK"
