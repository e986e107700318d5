#!/usr/bin/env bash
# Paired end-to-end comparison of a reference revision against the working
# tree on one e2ebench workload, or on every workload in turn.
#
#   scripts/e2ebench-pairs.sh REF WORKLOAD [PAIRS] [SEED]
#   make e2ebench-pairs REF=<rev> WORKLOAD=<name> PAIRS=10
#   make e2ebench-pairs REF=<rev> WORKLOAD=all
#
# REF is a git revision, checked out into a git worktree under
# .bench_build/, or a directory that already holds the reference checkout
# (e.g. an unpacked git archive). Each side is built and run through its
# own e2ebench/run.sh. Pair i runs both sides on seed SEED+i-1, the
# reference first in odd pairs and the working tree first in even ones,
# so each side goes first equally often (a side that always runs second
# reads differently on some metrics). The script prints, for every
# end-to-end metric BENCHMARK.json declares, each side's median, the
# reference's quartiles, the ratio of the medians and the number of pairs
# the working tree won; the raw result lines stay in
# .bench_build/pairs-<WORKLOAD>/. WORKLOAD=all runs every workload
# BENCHMARK.json declares, one after another, and prints one table each.
# Needs git, bash and jq.
set -euo pipefail
if [ $# -lt 2 ]; then
	echo "usage: $0 REF WORKLOAD|all [PAIRS] [SEED]" >&2
	exit 2
fi
ref=$1 workloads=$2 pairs=${3:-10} seed=${4:-1}
command -v jq >/dev/null || { echo "$0: jq is required" >&2; exit 2; }
root=$(git rev-parse --show-toplevel)
if [ "$workloads" = all ]; then
	workloads=$(jq -r '.workloads[].name' "$root/BENCHMARK.json")
fi
if [ -d "$ref" ]; then
	wt=$(cd "$ref" && pwd)
	sha=directory
fi
cd "$root"
mkdir -p "$root/.bench_build"
if [ -z "${wt:-}" ]; then
	sha=$(git rev-parse --verify "$ref^{commit}")
	wt="$root/.bench_build/ref-$sha"
	if [ ! -d "$wt" ]; then
		git worktree add --detach --quiet "$wt" "$sha"
	fi
	trap 'git worktree remove --force "$wt" 2>/dev/null || true' EXIT
fi

# run SIDE DIR SEED appends one result line for SIDE; the run's standard
# error goes to SIDE.log. The run, its build included, goes in the
# background in a process group of its own (set -m) and the script waits
# for it with wait: bash runs a trap only after a foreground child exits,
# but interrupts wait at once, so on INT or TERM the trap below stops the
# whole group before the script exits.
child=
run() {
	set -m
	bash "$2/e2ebench/run.sh" --workload "$workload" --seed "$3" --trace 0 >"$out/last" 2>>"$out/$1.log" &
	child=$!
	set +m
	if ! wait "$child"; then
		child=
		tail -n 20 "$out/$1.log" >&2
		exit 1
	fi
	child=
	tail -n 1 "$out/last" >>"$out/$1.jsonl"
}
stop() {
	if [ -n "$child" ]; then
		kill -TERM -- "-$child" 2>/dev/null || true
		wait "$child" 2>/dev/null || true
	fi
}
trap 'stop; exit 130' INT
trap 'stop; exit 143' TERM

# compare WORKLOAD runs the pairs of one workload and prints its table.
compare() {
	workload=$1
	out="$root/.bench_build/pairs-$workload"
	rm -rf "$out" && mkdir -p "$out"
	for ((i = 1; i <= pairs; i++)); do
		s=$((seed + i - 1))
		if ((i % 2 == 1)); then
			run ref "$wt" "$s" && run change "$root" "$s"
		else
			run change "$root" "$s" && run ref "$wt" "$s"
		fi
		echo "$workload: pair $i/$pairs done (seed $s)" >&2
	done

	echo "$workload: $ref ($sha) vs working tree, $pairs pairs from seed $seed"
	jq -rn --slurpfile bench BENCHMARK.json \
		--slurpfile ref "$out/ref.jsonl" --slurpfile change "$out/change.jsonl" '
		def q(p): sort as $s | ($s | length) as $n | (($n - 1) * p) as $k |
			($k | floor) as $lo | $s[$lo] + ($k - $lo) * (($s[[$lo + 1, $n - 1] | min]) - $s[$lo]);
		"failed: ref \([$ref[].failed] | add)/\([$ref[].attempted] | add), change \([$change[].failed] | add)/\([$change[].attempted] | add)",
		(["metric", "ref_median", "ref_q1", "ref_q3", "change_median", "ratio", "change_won"] | @tsv),
		($bench[0].end_to_end[] | .name as $m | .better as $better |
			[$ref[].metrics[$m].value] as $r | [$change[].metrics[$m].value] as $c |
			([range($r | length) | select(if $better == "lower" then $c[.] < $r[.] else $c[.] > $r[.] end)] | length) as $won |
			[$m, ($r | q(0.5)), ($r | q(0.25)), ($r | q(0.75)), ($c | q(0.5)),
				(if ($r | q(0.5)) == 0 then "-" else ($c | q(0.5)) / ($r | q(0.5)) end),
				"\($won)/\($r | length)"] | @tsv)' |
		awk -F '\t' 'NR == 1 { print; next } {
			printf "%-14s", $1
			for (i = 2; i <= NF; i++) printf($i ~ /^[-+0-9.eE]+$/ && $i != "-" ? " %13.5g" : " %13s", $i)
			print ""
		}'
}

for workload in $workloads; do
	compare "$workload"
done
