#!/usr/bin/env bash
# Builds dvperf and dvserve from this checkout, then runs the benchmark:
#
#   bash _dvperf/run.sh --workload census --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# traced runs' span files stay under $CARGO_TARGET_DIR (default
# .bench_build) in the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/dvserve" ./cmd/dvserve
(cd "$root/_dvperf" && go build -o "$out/dvperf" .)
exec "$out/dvperf" -dvserve "$out/dvserve" -out "$out/spans" "$@"
