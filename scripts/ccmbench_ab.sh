#!/usr/bin/env bash
# End-to-end A/B of the repository benchmark (ccmbench): a base revision
# against the working tree. Builds ccmbench once per side, the base's from
# a copy of BASE, then runs every workload BENCHMARK.json lists as PAIRS
# interleaved pairs (scripts/ab_common.sh) of untraced runs with seed SEED,
# each as long as its run_seconds. Each run starts in its own side's root,
# as ccmbench/run.sh would. Per workload it prints, for each end-to-end
# metric BENCHMARK.json declares, the change's wins in the direction the
# metric's "better" names, both medians, the base's IQR and a one-sided
# sign-test p (benchjson ab). Report-only.
#
# Usage (from the repo root; the Makefile's bench-ab-e2e target fills these in):
#   scripts/ccmbench_ab.sh BASE PAIRS SEED
#   make bench-ab-e2e BASE=HEAD~1 PAIRS=10 E2E_SEED=1
set -euo pipefail

if [[ $# -ne 3 ]]; then
	echo "usage: $0 BASE PAIRS SEED" >&2
	exit 2
fi
base=$1 pairs=$2 seed=$3
root=$(pwd)
source "$root/scripts/ab_common.sh"

# BENCHMARK.json holds one workload object a line, and the run length on a
# line of its own.
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
workloads=$(sed -n 's/^ *{"name": *"\([^"]*\)", *"why".*/\1/p' BENCHMARK.json)
if [[ -z $seconds || -z $workloads ]]; then
	echo "bench-ab-e2e: no run_seconds or workloads in BENCHMARK.json" >&2
	exit 1
fi
ab_checkout "$base" ccmbench-ab

# The build settings of ccmbench/run.sh, with the caller's build cache.
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd "$work/base/ccmbench" && go build -o "$work/base.bin" .)
(cd "$root/ccmbench" && go build -o "$work/change.bin" .)

# run WORKLOAD SIDE: one run, the last line of its standard output (the
# result line) appended to SIDE-WORKLOAD.jsonl.
run() {
	local wl=$1 side=$2 dir=$root log=$work/$2-$1.log
	[[ $side == base ]] && dir=$work/base
	if ! (cd "$dir" && "$work/$side.bin" --workload "$wl" --seed "$seed" --seconds "$seconds" --trace 0) >"$log" 2>"$log.err"; then
		echo "bench-ab-e2e: $side run of $wl failed:" >&2
		tail -n 20 "$log" "$log.err" >&2
		exit 1
	fi
	tail -n 1 "$log" >>"$work/$side-$wl.jsonl"
}
for wl in $workloads; do
	ab_pairs "$pairs" "bench-ab-e2e: $wl" run "$wl"
done
for wl in $workloads; do
	echo "== $wl ($pairs pairs of ${seconds}s, seed $seed)"
	go run ./internal/tools/benchjson ab "$work/base-$wl.jsonl" "$work/change-$wl.jsonl"
done
