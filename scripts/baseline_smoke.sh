#!/usr/bin/env sh
# baseline_smoke.sh — the Router row's quality baseline does not move.
#
# hsdtrain -quality-baseline on a routed cascade writes the blended
# "primary" series plus one series per cascade stage (the calibrated
# confidence of each routing decision). scripts/baseline_router.golden is
# the file hsdtrain wrote on -small -seed 1 when those per-stage scores
# were still collected by a tap bound around the scoring loop; the file
# written today, from the Decision RouteCtx returns, must be
# byte-identical. It is a framed gob: regenerate it only by running the
# hsdtrain line below on a commit whose output you trust.

set -eu
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

go run ./cmd/benchgen -small -seed 1 -out "$WORK/suite.gob" >/dev/null
go run ./cmd/hsdtrain -suite "$WORK/suite.gob" -detector Router -seed 1 \
	-quality-baseline "$WORK/router.qb" >"$WORK/train.log" 2>&1 || {
	cat "$WORK/train.log" >&2
	exit 1
}
grep -q 'quality baseline (4 series)' "$WORK/train.log" || {
	echo "baseline smoke: want 4 series (primary + 3 stages):" >&2
	cat "$WORK/train.log" >&2
	exit 1
}
cmp "$WORK/router.qb" scripts/baseline_router.golden || {
	echo "baseline smoke: the Router row's quality baseline moved" >&2
	exit 1
}
echo "baseline smoke: ok (4 series, byte-identical)"
