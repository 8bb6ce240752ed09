#!/usr/bin/env bash
# Second-seed check: runs every workload on the default seed 1 and on
# seed 2 and checks that each end-to-end metric of seed 2 stays within its
# BENCHMARK.json bound of seed 1's value.
#
#   bash _dvperf/seedcheck.sh [seconds]
#
# Run it from the repository root.
set -euo pipefail

seconds="${1:-20}"
out="${CARGO_TARGET_DIR:-.bench_build}/seedcheck"
mkdir -p "$out"
status=0
for w in replay census serve recover; do
	for seed in 1 2; do
		bash _dvperf/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$out/$w-$seed.txt"
	done
	echo "== $w: seed 2 against seed 1"
	"${CARGO_TARGET_DIR:-.bench_build}/dvperf" -compare BENCHMARK.json "$out/$w-1.txt" "$out/$w-2.txt" || status=1
done
exit "$status"
