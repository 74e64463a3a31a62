#!/usr/bin/env sh
# gltconv_smoke.sh — the GLT <-> GDSII converter, end to end.
#
# A layout taken GLT -> GDS -> GLT must come back byte-identical to the
# same layout taken GLT -> GLT, and an -out whose extension gltconv
# refuses must leave an existing file of that name as it was.

set -eu
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

go build -o "$WORK/gltconv" ./cmd/gltconv
printf 'GLT 1\nLAYOUT smoke\nRECT 0 0 120 64\nRECT 200 -40 320 64\nRECT -512 200 512 264\nRECT 1000 1000 1001 4096\nEND\n' >"$WORK/in.glt"

"$WORK/gltconv" -in "$WORK/in.glt" -out "$WORK/mid.gds" >/dev/null
"$WORK/gltconv" -in "$WORK/mid.gds" -out "$WORK/back.glt" >/dev/null
"$WORK/gltconv" -in "$WORK/in.glt" -out "$WORK/direct.glt" >/dev/null
cmp "$WORK/back.glt" "$WORK/direct.glt" || {
	echo "gltconv smoke: GLT -> GDS -> GLT differs from GLT -> GLT" >&2
	exit 1
}

printf 'not a layout\n' >"$WORK/notes.txt"
cp "$WORK/notes.txt" "$WORK/notes.want"
if "$WORK/gltconv" -in "$WORK/in.glt" -out "$WORK/notes.txt" 2>/dev/null; then
	echo "gltconv smoke: a .txt output was accepted" >&2
	exit 1
fi
cmp "$WORK/notes.txt" "$WORK/notes.want" || {
	echo "gltconv smoke: a refused -out changed the file it names" >&2
	exit 1
}
echo "gltconv smoke: ok"
