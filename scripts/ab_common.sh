# The A/B method shared by scripts/bench_ab.sh and scripts/ccmbench_ab.sh:
# a base revision against the working tree, run as interleaved pairs.
# Source it from the repository root; it defines functions only.

# ab_checkout BASE NAME: makes the work directory $work (named after NAME,
# under TMPDIR, removed on exit) and extracts a copy of BASE into
# $work/base. A git archive copy registers nothing in the repository's
# .git, so even a killed run leaves no stale worktree behind.
ab_checkout() {
	work=$(mktemp -d "${TMPDIR:-/tmp}/$2.XXXXXX")
	trap 'rm -rf "$work"' EXIT
	mkdir "$work/base"
	git archive "$1" | tar -x -C "$work/base"
}

# ab_pairs PAIRS LABEL CMD...: runs `CMD... base` and `CMD... change` PAIRS
# times, alternating which side goes first: both sides run in the same
# minutes, so host drift cancels, and neither always gets the second
# (slower) slot.
ab_pairs() {
	local pairs=$1 label=$2 i
	shift 2
	for ((i = 1; i <= pairs; i++)); do
		echo "$label: pair $i/$pairs" >&2
		if ((i % 2)); then
			"$@" base
			"$@" change
		else
			"$@" change
			"$@" base
		fi
	done
}
