#!/usr/bin/env bash
# CI bench gate: runs the repository's benchmark (BENCHMARK.json's command)
# on BASE and on this tree in alternating pairs, and judges the results with
# cmd/benchcheck under BENCHMARK.json's end-to-end bounds.
#
#   scripts/bench_check.sh BASE     # BASE: a git ref, e.g. origin/main
#
# BASE is checked out into a temporary git worktree, removed on exit. Each
# tree builds its own binaries from its own source. Needs jq.
set -euo pipefail
[ $# -eq 1 ] || { echo "usage: $0 BASE" >&2; exit 2; }
cd "$(dirname "$0")/.."
change=$(pwd)
base=$(mktemp -d "${TMPDIR:-/tmp}/bench-base.XXXXXX")
results=$(mktemp "${TMPDIR:-/tmp}/bench-results.XXXXXX")
trap 'git worktree remove --force "$base" 2>/dev/null || rm -rf "$base"; git worktree prune; rm -f "$results"' EXIT
git worktree add --detach --quiet "$base" "$1"

mapfile -t cmd < <(jq -r '.command[]' BENCHMARK.json)
mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
seconds=$(jq -r '.run_seconds' BENCHMARK.json)
pairs=5

# run SIDE TREE WORKLOAD: one benchmark run, whose last output line goes to
# the results as "WORKLOAD SIDE LINE". A run that fails still gets its line:
# benchcheck counts whatever it printed as not correct.
run() {
	local out
	echo "bench gate: $3, $1 run" >&2
	out=$(cd "$2" && "${cmd[@]}" --workload "$3" --seed 1 --seconds "$seconds" --trace 0) ||
		echo "bench gate: the $1 run of $3 exited $?" >&2
	printf '%s\n' "$out" >&2
	printf '%s %s %s\n' "$3" "$1" "${out##*$'\n'}" >>"$results"
}

for w in "${workloads[@]}"; do
	for ((i = 0; i < pairs; i++)); do
		if ((i % 2 == 0)); then
			run parent "$base" "$w"
			run change "$change" "$w"
		else
			run change "$change" "$w"
			run parent "$base" "$w"
		fi
	done
done
go run ./cmd/benchcheck <"$results"
