#!/usr/bin/env sh
# flags_smoke.sh — no flag appears or vanishes unnoticed.
#
# Builds the five detector binaries and gltconv, takes the flag names
# each prints under -h, and diffs the sorted "<binary> <flag>" list against
# scripts/flags.golden. A deliberate flag change reruns this with
# -update and commits the golden next to it.

set -eu
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

for b in hsdtrain hsdeval hsdscan hsdserve hsdlearn gltconv; do
	go build -o "$WORK/$b" "./cmd/$b"
	# package flag prints every flag as "  -name [type]" on stderr.
	"$WORK/$b" -h 2>&1 | awk -v b="$b" '/^  -/ { print b, $1 }'
done | LC_ALL=C sort >"$WORK/flags.txt"

if [ "${1:-}" = "-update" ]; then
	cp "$WORK/flags.txt" scripts/flags.golden
fi
diff -u scripts/flags.golden "$WORK/flags.txt" || {
	echo "flags smoke: a binary's flag set moved; if intended, rerun with -update and commit scripts/flags.golden" >&2
	exit 1
}
echo "flags smoke: ok ($(wc -l <"$WORK/flags.txt" | tr -d ' ') flags across 6 binaries)"
