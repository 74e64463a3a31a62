#!/usr/bin/env sh
# abpair.sh — compare two commits on the repo benchmark.
#
# Usage: scripts/abpair.sh PARENT CHANGE [N] [WORKLOAD...]
#
# Builds ./bench from each revision's committed files (git archive; for
# uncommitted work, `git stash create` names a commit) in a temp dir,
# then runs N alternating pairs (default 10) of each WORKLOAD (default:
# every workload in CHANGE's BENCHMARK.json), PARENT first in the odd
# pairs. Each run is a default contract run from its own tree. Prints
# each side's correct runs and failed operations, then per end-to-end
# metric each side's median and q1-q3 and the pairs CHANGE won.

set -eu

if [ $# -lt 2 ]; then
	echo "usage: $0 PARENT CHANGE [N] [WORKLOAD...]" >&2
	exit 2
fi
parent=$1
change=$2
shift 2
n=10
if [ $# -gt 0 ]; then
	n=$1
	shift
fi
case $n in
'' | *[!0-9]* | 0)
	echo "abpair: N must be a positive integer, got '$n'" >&2
	exit 2
	;;
esac

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM

# build REV SIDE builds REV's benchmark in $work/SIDE.
build() {
	mkdir "$work/$2"
	git archive "$1" | tar -x -C "$work/$2"
	(cd "$work/$2" && go build -o abpair.bench ./bench)
	echo "abpair: $2 is $(git rev-parse --short "$1")"
}
build "$parent" parent
build "$change" change

contract="$work/change/BENCHMARK.json"
if [ $# -eq 0 ]; then
	set -- $(jq -r '.workloads[].name' "$contract")
fi

# one SIDE WORKLOAD appends one run's result line.
one() {
	(cd "$work/$1" && ./abpair.bench --workload "$2" | tail -n 1 | grep '^{') >>"$work/$2.$1.jsonl" || true
}

for wl in "$@"; do
	i=1
	while [ "$i" -le "$n" ]; do
		if [ $((i % 2)) -eq 1 ]; then
			one parent "$wl"
			one change "$wl"
		else
			one change "$wl"
			one parent "$wl"
		fi
		i=$((i + 1))
	done

	echo
	echo "== $wl: $n pairs"
	for side in parent change; do
		jq -rs --arg side "$side" '"\($side): \(map(select(.correct)) | length) of \(length) runs correct, \(map(.failed) | add) operations failed"' "$work/$wl.$side.jsonl"
	done
	printf '%-18s %-6s %-36s %-36s %s\n' metric better "parent median (q1-q3)" "change median (q1-q3)" "change wins"
	jq -rn --slurpfile p "$work/$wl.parent.jsonl" --slurpfile c "$work/$wl.change.jsonl" --slurpfile k "$contract" '
		# q: the p-quantile of a sorted array, interpolated between ranks.
		def q($p): (($p * (length - 1)) | floor) as $i
			| (($p * (length - 1)) - $i) as $f
			| if $i + 1 < length then .[$i] + $f * (.[$i + 1] - .[$i]) else .[$i] end;
		def summary: sort | q(0.5), q(0.25), q(0.75);
		$k[0].end_to_end[] as $m
		| [$p[] | .metrics[$m.name].value] as $pv
		| [$c[] | .metrics[$m.name].value] as $cv
		| [range(0; [$pv, $cv | length] | min)
			| select(if $m.better == "higher" then $cv[.] > $pv[.] else $cv[.] < $pv[.] end)] | length
		| [$m.name, $m.better, ($pv | summary), ($cv | summary), ., ($pv | length)] | @tsv
	' | while IFS="$(printf '\t')" read -r name better pm p1 p3 cm c1 c3 wins pairs; do
		printf '%-18s %-6s %-36s %-36s %s\n' "$name" "$better" \
			"$(printf '%.4g (%.4g-%.4g)' "$pm" "$p1" "$p3")" \
			"$(printf '%.4g (%.4g-%.4g)' "$cm" "$c1" "$c3")" "$wins/$pairs"
	done
done
