#!/usr/bin/env sh
# api_smoke.sh — the facade cannot grow or shrink unnoticed.
#
# Takes the root package's exported names from `go doc -short .` (one
# "<kind> <name>" line each; a constructor listed under its type counts
# as a func) and diffs the sorted list against scripts/api.golden. A
# deliberate facade change reruns this with -update and commits the
# golden next to it.

set -eu
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

# go doc prints a grouped const or var block as its first name and
# "...", so the Defect* constants are one line.
go doc -short . | sed -E 's/^ +//; s/^(const|var|func|type) ([A-Za-z0-9_]+).*/\1 \2/' |
	LC_ALL=C sort >"$WORK/api.txt"

if [ "${1:-}" = "-update" ]; then
	cp "$WORK/api.txt" scripts/api.golden
fi
diff -u scripts/api.golden "$WORK/api.txt" || {
	echo "api smoke: package hsd's exported names moved; if intended, rerun with -update and commit scripts/api.golden" >&2
	exit 1
}
echo "api smoke: ok ($(wc -l <"$WORK/api.txt" | tr -d ' ') exported names)"
