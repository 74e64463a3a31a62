#!/usr/bin/env sh
# learn_smoke.sh — end-to-end kill-resume gate for the active-learning
# data engine (hsdlearn + internal/datengine).
#
# Runs the full mine -> select -> label -> retrain -> gate -> ship cycle
# three ways over the same deterministic suite:
#
#   1. an uninterrupted reference cycle shipping ref/model-000.gob;
#   2. the same cycle with -label-delay widening the labeling window,
#      SIGKILLed mid-label (a real crash: no cleanup, no flush, the WAL
#      is whatever fsync made durable);
#   3. hsdlearn -resume over the torn WAL, which must pick up the
#      durable labels instead of redoing them and ship the batch.
#
# First, a WAL written by hsdserve -learn-wal under a lower-case
# -detector must be one hsdlearn resumes: both key it by the zoo's name
# for the detector, not by the flag as typed.
#
# The gate: the resumed run must report resumed labels >= 1 (otherwise
# the kill landed outside the labeling window and the pass would be
# vacuous), its shipped model must pass the same golden-set gate, and
# the model file must be BYTE-identical to the uninterrupted run's.
# Mining the detector's own uncertainty band doubles as the drift
# injection: the band is exactly where the base model is least sure.

set -eu

ADDR=127.0.0.1:18096
WORK=$(mktemp -d)
LEARN_PID=""
SERVER_PID=""
cleanup() {
	[ -n "$LEARN_PID" ] && kill -9 "$LEARN_PID" 2>/dev/null || true
	[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

LEARN_ARGS="-detector MLP -seed 1 -batch 5 -cycles 1"

echo "learn smoke: generating suite"
go run ./cmd/benchgen -small -seed 7 -out "$WORK/suite.gob" >/dev/null

echo "learn smoke: building hsdlearn + hsdserve"
go build -o "$WORK/hsdlearn" ./cmd/hsdlearn
go build -o "$WORK/hsdserve" ./cmd/hsdserve

echo "learn smoke: hsdserve -detector mlp -learn-wal, then hsdlearn -detector MLP -resume"
"$WORK/hsdserve" -suite "$WORK/suite.gob" -detector mlp -seed 1 \
	-learn-wal "$WORK/served.wal" -addr "$ADDR" >"$WORK/serve.log" 2>&1 &
SERVER_PID=$!
ready=""
i=0
while [ $i -lt 120 ]; do
	if curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; then
		ready=1
		break
	fi
	sleep 0.5
	i=$((i + 1))
done
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || true
SERVER_PID=""
if [ -z "$ready" ]; then
	echo "learn smoke: hsdserve never became ready" >&2
	cat "$WORK/serve.log" >&2
	exit 1
fi
if ! "$WORK/hsdlearn" -suite "$WORK/suite.gob" -detector MLP -seed 1 -cycles 0 \
	-wal "$WORK/served.wal" -model-dir "$WORK/served" -resume >"$WORK/served.log" 2>&1; then
	echo "learn smoke: hsdlearn refused the WAL hsdserve -detector mlp wrote" >&2
	cat "$WORK/served.log" >&2
	exit 1
fi

echo "learn smoke: uninterrupted reference cycle"
# shellcheck disable=SC2086
"$WORK/hsdlearn" -suite "$WORK/suite.gob" $LEARN_ARGS \
	-wal "$WORK/ref.wal" -model-dir "$WORK/ref" >"$WORK/ref.log" 2>&1
grep -q 'outcome=shipped' "$WORK/ref.log" || {
	echo "learn smoke: reference cycle did not ship" >&2
	cat "$WORK/ref.log" >&2
	exit 1
}

echo "learn smoke: -resume on a missing WAL must fail loudly"
if "$WORK/hsdlearn" -suite "$WORK/suite.gob" $LEARN_ARGS \
	-wal "$WORK/nosuch.wal" -model-dir "$WORK/x" -resume >/dev/null 2>&1; then
	echo "learn smoke: -resume on a missing WAL silently started fresh" >&2
	exit 1
fi

echo "learn smoke: journaled cycle, killing mid-label"
# shellcheck disable=SC2086
"$WORK/hsdlearn" -suite "$WORK/suite.gob" $LEARN_ARGS \
	-wal "$WORK/learn.wal" -model-dir "$WORK/killed" \
	-label-delay 700ms >"$WORK/kill.log" 2>&1 &
LEARN_PID=$!

# Wait for batch selection (journaled before labeling starts), then let
# roughly two of the five delayed labels land and kill the process.
killed=""
i=0
while [ $i -lt 1200 ]; do
	if ! kill -0 "$LEARN_PID" 2>/dev/null; then
		break # cycle finished before we could kill it
	fi
	if grep -q 'selected' "$WORK/kill.log" 2>/dev/null; then
		sleep 1.5
		kill -9 "$LEARN_PID" 2>/dev/null && killed=1
		break
	fi
	sleep 0.05
	i=$((i + 1))
done
wait "$LEARN_PID" 2>/dev/null || true
LEARN_PID=""
if [ -z "$killed" ]; then
	echo "learn smoke: cycle exited before the kill landed; gate is vacuous" >&2
	cat "$WORK/kill.log" >&2
	exit 1
fi

echo "learn smoke: running hsdlearn -resume over the torn WAL"
# shellcheck disable=SC2086
"$WORK/hsdlearn" -suite "$WORK/suite.gob" $LEARN_ARGS \
	-wal "$WORK/learn.wal" -model-dir "$WORK/killed" \
	-resume >"$WORK/resume.log" 2>&1

resumed=$(sed -n 's/.*(resumed \([0-9]*\)).*/\1/p' "$WORK/resume.log")
if [ -z "$resumed" ] || [ "$resumed" -lt 1 ]; then
	echo "learn smoke: resume replayed no durable labels (resumed=${resumed:-none}); kill landed outside the labeling window" >&2
	cat "$WORK/resume.log" >&2
	exit 1
fi
grep -q 'outcome=shipped' "$WORK/resume.log" || {
	echo "learn smoke: resumed cycle did not ship" >&2
	cat "$WORK/resume.log" >&2
	exit 1
}
echo "learn smoke: resumed $resumed durable labels from the torn WAL"

if ! cmp "$WORK/ref/model-000.gob" "$WORK/killed/model-000.gob"; then
	echo "learn smoke: shipped model differs from the uninterrupted run" >&2
	exit 1
fi
echo "learn smoke: ok (kill -9 mid-label resumed to a byte-identical shipped model)"
