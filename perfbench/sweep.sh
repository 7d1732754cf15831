#!/usr/bin/env bash
# Runs the benchmark RUNS times per workload, each run with its own seed
# (1..RUNS), and saves each run's standard output, ready for
# `bash perfbench/run.sh compare BASE_DIR HEAD_DIR`.
#
#   bash perfbench/sweep.sh OUTDIR RUNS [TRACE] [WORKLOAD...]
#   bash perfbench/sweep.sh --pair BASE_TREE HEAD_TREE OUTDIR RUNS [TRACE] [WORKLOAD...]
#
# The first form runs the tree it is started in (from its root) and
# writes OUTDIR/WORKLOAD-seedN-traceT.out. The second compares two
# source trees, each holding perfbench/: for every seed and workload it
# runs BASE_TREE and HEAD_TREE back to back, alternating which goes
# first, and writes OUTDIR/base/... and OUTDIR/head/.... Each file
# starts with the slot the pair ran in, and compare pairs base and head
# runs by that slot, so slow host periods fall on both sides of a pair.
# Each tree builds into its own .bench_build. TRACE is 0 (default) or 1.
set -euo pipefail

pair=0
if [ "${1:-}" = --pair ]; then
	pair=1
	base="$(cd "$2" && pwd)"
	head="$(cd "$3" && pwd)"
	shift 3
fi
out="$1"
runs="$2"
trace="${3:-0}"
shift $(($# < 3 ? $# : 3))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(table1 wide_cold edit_session daemon)
fi

# one TREE W SEED runs one benchmark run of TREE from its root.
one() {
	local tree="$1" w="$2" seed="$3" seconds
	seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$tree/BENCHMARK.json")"
	(cd "$tree" && CARGO_TARGET_DIR="$tree/.bench_build" bash perfbench/run.sh \
		--workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace")
}

if [ "$pair" = 0 ]; then
	mkdir -p "$out"
	for seed in $(seq 1 "$runs"); do
		for w in "${workloads[@]}"; do
			one "$(pwd)" "$w" "$seed" >"$out/$w-seed$seed-trace$trace.out"
		done
	done
	exit 0
fi

mkdir -p "$out/base" "$out/head"
slot=0
for seed in $(seq 1 "$runs"); do
	for w in "${workloads[@]}"; do
		order=(base head)
		if [ $((slot % 2)) = 1 ]; then
			order=(head base)
		fi
		for side in "${order[@]}"; do
			tree="$base"
			if [ "$side" = head ]; then
				tree="$head"
			fi
			{
				echo "slot $slot first=${order[0]}"
				one "$tree" "$w" "$seed"
			} >"$out/$side/$w-seed$seed-trace$trace.out"
		done
		slot=$((slot + 1))
	done
done
