#!/usr/bin/env sh
# train_smoke.sh — the CNN-biased row's trained network does not move.
#
# hsdtrain -detector CNN-biased -seed 1 -save on benchgen -small -seed 1
# must write a network whose SHA-256 is the one in
# scripts/train_cnn_small_seed1.sha256, so the suite generator, the
# augmentation, the training step and the network codec are pinned end
# to end. Regenerate the digest only by running the two lines below on
# a commit whose output you trust.

set -eu
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

go run ./cmd/benchgen -small -seed 1 -out "$WORK/suite.gob" >/dev/null
go run ./cmd/hsdtrain -suite "$WORK/suite.gob" -detector CNN-biased -seed 1 \
	-save "$WORK/cnn.hsdnn" >"$WORK/train.log" 2>&1 || {
	cat "$WORK/train.log" >&2
	exit 1
}
want=$(cat scripts/train_cnn_small_seed1.sha256)
got=$(sha256sum "$WORK/cnn.hsdnn" | cut -d' ' -f1)
if [ "$got" != "$want" ]; then
	echo "train smoke: the CNN-biased row's network moved: sha256 $got, want $want" >&2
	exit 1
fi
echo "train smoke: ok ($got)"
