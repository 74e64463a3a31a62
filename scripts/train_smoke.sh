#!/usr/bin/env sh
# train_smoke.sh — the CNN-biased row's trained network does not move,
# and a run that fails writes nothing.
#
# hsdtrain -detector CNN-biased -seed 1 -save on benchgen -small -seed 1
# must write a network whose SHA-256 is the one in
# scripts/train_cnn_small_seed1.sha256, so the suite generator, the
# augmentation, the training step and the network codec are pinned end
# to end. Regenerate the digest only by running the two lines below on
# a commit whose output you trust.
#
# Then two runs that must exit non-zero and leave an existing -save file
# byte-identical: -save with a detector that has no network (refused
# before anything is trained, so no metrics are printed), and a CNN run
# sent SIGINT mid-run. A run that finishes before the signal lands shows
# nothing about the signal, so that case is reported as skipped.

set -eu
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

go build -o "$WORK/hsdtrain" ./cmd/hsdtrain
go run ./cmd/benchgen -small -seed 1 -out "$WORK/suite.gob" >/dev/null
"$WORK/hsdtrain" -suite "$WORK/suite.gob" -detector CNN-biased -seed 1 \
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

cp "$WORK/cnn.hsdnn" "$WORK/keep.hsdnn"
if "$WORK/hsdtrain" -suite "$WORK/suite.gob" -detector AdaBoost \
	-save "$WORK/keep.hsdnn" >"$WORK/adaboost.log" 2>&1; then
	echo "train smoke: hsdtrain -detector AdaBoost -save exited 0" >&2
	exit 1
fi
if ! grep -q 'not a neural detector' "$WORK/adaboost.log" || grep -q '^accuracy' "$WORK/adaboost.log"; then
	echo "train smoke: -save with AdaBoost was not refused before the fit:" >&2
	cat "$WORK/adaboost.log" >&2
	exit 1
fi
cmp "$WORK/keep.hsdnn" "$WORK/cnn.hsdnn" || {
	echo "train smoke: a refused -save changed the file it names" >&2
	exit 1
}
echo "train smoke: -save with AdaBoost refused, file untouched"

"$WORK/hsdtrain" -suite "$WORK/suite.gob" -detector CNN -seed 1 \
	-save "$WORK/keep.hsdnn" >"$WORK/sigint.log" 2>&1 &
pid=$!
sleep 0.2
kill -INT "$pid" 2>/dev/null || true
if wait "$pid"; then
	echo "train smoke: SIGINT case skipped (the run finished before the signal)"
else
	cmp "$WORK/keep.hsdnn" "$WORK/cnn.hsdnn" || {
		echo "train smoke: a SIGINT'd run changed its -save file:" >&2
		cat "$WORK/sigint.log" >&2
		exit 1
	}
	echo "train smoke: SIGINT'd run exited non-zero, file untouched ($(tail -n 1 "$WORK/sigint.log"))"
fi
