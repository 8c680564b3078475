#!/usr/bin/env bash
# Builds electbench from the sources of the checkout it sits in and runs it
# with the given arguments, e.g.
#
#   bash electbench/run.sh --workload sim-rr8 --seed 1 --seconds 45 --trace 0
#
# Run it from the checkout's root. Everything the build and the run leave
# behind (Go build cache, binary, trace files) goes under $CARGO_TARGET_DIR,
# default .bench_build, inside the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/trace"
out=$(cd "$out" && pwd)

# Keep the go command's cache, temporary files and config (telemetry
# counters) inside the checkout, and never let it reach the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

# Build to a private name and rename, so concurrent runs never exec a
# half-written binary.
tmp="$out/electbench.$$"
(cd "$here" && go build -o "$tmp" .) >&2
mv -f "$tmp" "$out/electbench"
exec "$out/electbench" --trace-dir "$out/trace" "$@"
