#!/usr/bin/env bash
# Paired benchmark of a base commit against this checkout.
#
#   scripts/perf-check.sh [BASE=HEAD~1] [PAIRS=10] [WORKLOAD=all]
#
# Checks BASE out into a git worktree under .bench_build/, runs
# `bash bench/run.sh --seed N --out ...` in both trees PAIRS times — the
# side that goes first alternates per pair, pair N uses seed N on both
# sides — and prints `bench/run.sh --compare base change`. It only invokes
# bench/; BENCHMARK.json decides what is measured and what counts as worse.
#
# Exit status: 0 no bounded metric is worse or unresolved, 1 some are (the
# status of --compare), 2 the comparison could not be made. With one
# WORKLOAD only that workload's rows decide: --compare lists the workloads
# a file leaves out as missing.
#
# Run from the root of a checkout. WORKLOAD=all takes about seven minutes
# per pair (four workloads, untraced and traced, 20 s windows, two sides).
set -uo pipefail

base=${1:-HEAD~1}
pairs=${2:-10}
workload=${3:-all}

root=$(pwd)
tree="$root/.bench_build/base"
out="$root/.bench_build/perf-check"

die() { echo "perf-check: $*" >&2; exit 2; }

[ -f "$root/BENCHMARK.json" ] || die "run from the root of a checkout"
commit=$(git rev-parse --verify --quiet "$base^{commit}") || die "no commit $base"

drop_tree() {
	git worktree remove --force "$tree" 2>/dev/null
	rm -rf "$tree"
	git worktree prune
}
drop_tree
trap drop_tree EXIT
mkdir -p "$out" || die "cannot create $out"
rm -f "$out/base.jsonl" "$out/change.jsonl"
git worktree add --quiet --detach "$tree" "$commit" || die "cannot check out $base"

# run SIDE DIR SEED: one bench/run.sh invocation appending to SIDE's file.
run() {
	local args=(--seed "$3" --out "$out/$1.jsonl")
	[ "$workload" = all ] || args+=(--workload "$workload" --trace 0)
	echo "perf-check: pair $3/$pairs, $1" >&2
	(cd "$2" && bash bench/run.sh "${args[@]}") >"$out/$1.last.log" 2>&1 ||
		die "bench/run.sh failed on the $1 side, see $out/$1.last.log"
}

for ((n = 1; n <= pairs; n++)); do
	if ((n % 2)); then
		run base "$tree" "$n"
		run change "$root" "$n"
	else
		run change "$root" "$n"
		run base "$tree" "$n"
	fi
done

echo "perf-check: A = $base ($commit), B = this checkout, $pairs pairs, workload $workload"
table=$(bash bench/run.sh --compare "$out/base.jsonl" "$out/change.jsonl")
status=$?
echo "$table"
[ "$status" -le 1 ] || die "--compare failed"
if [ "$workload" != all ]; then
	status=0
	if awk -v w="$workload" '$1 == w && $NF ~ /^(worse|unresolved|missing)$/ { bad = 1 } END { exit !bad }' <<<"$table"; then
		status=1
	fi
fi
exit "$status"
