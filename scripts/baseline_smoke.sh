#!/usr/bin/env sh
# baseline_smoke.sh — the CNN-biased row's quality baseline does not move.
#
# hsdtrain -quality-baseline scores the training split through the
# trained detector and writes one "primary" series of score histograms.
# scripts/baseline_cnn.golden holds the baseline hsdtrain wrote for
# CNN-biased on -small -seed 1; the file written today must be
# byte-identical, so the training step, the scoring path and the
# baseline codec are pinned end to end. Regenerate the golden only by
# running the hsdtrain line below on a commit whose output you trust.

set -eu
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

go run ./cmd/benchgen -small -seed 1 -out "$WORK/suite.gob" >/dev/null
go run ./cmd/hsdtrain -suite "$WORK/suite.gob" -detector CNN-biased -seed 1 \
	-quality-baseline "$WORK/cnn.qb" >"$WORK/train.log" 2>&1 || {
	cat "$WORK/train.log" >&2
	exit 1
}
grep -q 'quality baseline (1 series)' "$WORK/train.log" || {
	echo "baseline smoke: want 1 series (primary):" >&2
	cat "$WORK/train.log" >&2
	exit 1
}
cmp "$WORK/cnn.qb" scripts/baseline_cnn.golden || {
	echo "baseline smoke: the CNN-biased row's quality baseline moved" >&2
	exit 1
}
echo "baseline smoke: ok (1 series, byte-identical)"
