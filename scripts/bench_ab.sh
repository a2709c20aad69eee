#!/usr/bin/env bash
# A/B of the go test benchmarks: a base revision against the working tree.
# Builds each package's test binary on both sides, the base's from a copy
# of BASE, then runs them as PAIRS interleaved pairs (scripts/ab_common.sh).
# Prints per benchmark the change's wins, both medians, the base's IQR and
# a one-sided sign-test p (benchjson ab). Report-only.
#
# Usage (from the repo root; the Makefile's bench-ab target fills these in):
#   scripts/bench_ab.sh BASE BENCH PAIRS BENCHTIME PKG...
#   make bench-ab BASE=HEAD~1 BENCH='SessionPaper|BuildPaper' PAIRS=10
set -euo pipefail

if [[ $# -lt 5 ]]; then
	echo "usage: $0 BASE BENCH PAIRS BENCHTIME PKG..." >&2
	exit 2
fi
base=$1 bench=$2 pairs=$3 benchtime=$4
shift 4
root=$(pwd)
source "$root/scripts/ab_common.sh"
ab_checkout "$base" bench-ab

# One binary per side and package, kept only where a top-level benchmark
# matches (go test splits -bench at slashes, one pattern per level).
bins=()
for pkg in "$@"; do
	name=$(echo "$pkg" | tr -c 'a-zA-Z0-9\n' '_')
	(cd "$work/base" && go test -c -o "$work/base-$name.test" "$pkg")
	go test -c -o "$work/change-$name.test" "$pkg"
	for side in base change; do
		[[ -x $work/$side-$name.test ]] || continue 2 # no test files
		[[ -n $("$work/$side-$name.test" -test.list "${bench%%/*}") ]] || continue 2
	done
	bins+=("$pkg:$name")
done
if [[ ${#bins[@]} -eq 0 ]]; then
	echo "bench-ab: no benchmark matches $bench" >&2
	exit 1
fi

# run SIDE: one count of every matching benchmark on SIDE, from each
# package's directory on that side.
run() {
	local side=$1 dir=$root
	[[ $side == base ]] && dir=$work/base
	for b in "${bins[@]}"; do
		(cd "$dir/${b%%:*}" && "$work/$side-${b#*:}.test" -test.run '^$' -test.bench "$bench" \
			-test.benchmem -test.benchtime "$benchtime" -test.count 1 -test.timeout 30m) >>"$work/$side.txt"
	done
}
ab_pairs "$pairs" bench-ab run
go run ./internal/tools/benchjson ab "$work/base.txt" "$work/change.txt"
