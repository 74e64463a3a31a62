#!/usr/bin/env sh
# api_smoke.sh — the facade cannot grow or shrink unnoticed.
#
# Takes the root package's exported names from `go doc -short .` (one
# "<kind> <name>" line each; a constructor listed under its type counts
# as a func) and diffs the sorted list against scripts/api.golden. A
# deliberate facade change reruns this with -update and commits the
# golden next to it. Before either, every name must have a caller
# outside the facade: some non-test Go file under cmd/, examples/,
# internal/ or bench/ that names it as hsd.<Name>. A name only the
# facade's own signatures or tests mention fails, -update included.

set -eu
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

# go doc prints a grouped const or var block as its first name and
# "...", so such a block is one line.
go doc -short . | sed -E 's/^ +//; s/^(const|var|func|type) ([A-Za-z0-9_]+).*/\1 \2/' |
	LC_ALL=C sort >"$WORK/api.txt"

grep -rhow --include='*.go' --exclude='*_test.go' 'hsd\.[A-Za-z0-9_]*' cmd examples internal bench |
	sed 's/^hsd\.//' | LC_ALL=C sort -u >"$WORK/used.txt"
unused=$(cut -d' ' -f2 "$WORK/api.txt" | LC_ALL=C sort | LC_ALL=C comm -23 - "$WORK/used.txt")
if [ -n "$unused" ]; then
	for name in $unused; do
		echo "hsd.$name: no caller outside the facade" >&2
	done
	echo "api smoke: delete each name above, or unexport it if the facade itself needs it" >&2
	exit 1
fi

if [ "${1:-}" = "-update" ]; then
	cp "$WORK/api.txt" scripts/api.golden
fi
diff -u scripts/api.golden "$WORK/api.txt" || {
	echo "api smoke: package hsd's exported names moved; if intended, rerun with -update and commit scripts/api.golden" >&2
	exit 1
}
echo "api smoke: ok ($(wc -l <"$WORK/api.txt" | tr -d ' ') exported names)"
