#!/usr/bin/env sh
# scan_smoke.sh — end-to-end kill-resume gate for the scan farm.
#
# Runs hsdscan over the same deterministic chip:
#
#   0. (not a scan) benchgen -small -seed 1 at -workers 1, 2 and 8 must
#      hash to scripts/suite_small_seed1.sha256;
#   1. an uninterrupted reference scan writing full.txt, and the same
#      scan at -workers 8, which must write the same bytes; then the
#      zoo's CNN over the same chip at -workers 1, at -workers 8 and from
#      a -tags purego build, which must all write the same bytes too;
#   2. a journaled scan that is SIGKILLed as soon as the journal shows
#      at least one completed shard (a real crash: no cleanup, no
#      flush, the journal is whatever fsync made durable);
#   3. the same scan without -resume, which must refuse to overwrite
#      the journal and leave it untouched;
#   4. the same scan with -resume, writing resumed.txt.
#
# The gate: resumed.txt must be byte-identical to full.txt, and the
# resumed run must have actually skipped work (1 <= resumed shards <
# total), otherwise the kill landed after completion and the pass
# would be vacuous.

set -eu

WORK=$(mktemp -d)
SCAN_PID=""
cleanup() {
	[ -n "$SCAN_PID" ] && kill -9 "$SCAN_PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

# One worker and one grid row per shard stretch the scan to a few
# seconds and maximize the number of journal records, so the kill has a
# wide window to land mid-scan.
EDGE=32768
SCAN_ARGS="-detector AdaBoost -seed 1 -gen-seed 42 -gen-edge $EDGE \
	-workers 1 -shard-rows 1 -top 0"

echo "scan smoke: generating suite"
go build -o "$WORK/benchgen" ./cmd/benchgen
"$WORK/benchgen" -small -seed 7 -out "$WORK/suite.gob" >/dev/null

echo "scan smoke: the seed-1 small suite against its committed digests"
# The suite every smoke script and the repo benchmark start from is a
# committed list of bytes: one digest per -workers value, because the
# file records it. They were rewritten when the cache became a framelog
# frame; internal/iccad's TestSmallSuiteGolden, unedited since before
# the oracle's blur moved onto the matmul kernel, holds the values.
while read -r w want; do
	"$WORK/benchgen" -small -seed 1 -workers "$w" -out "$WORK/seed1.gob" >/dev/null
	got=$(sha256sum "$WORK/seed1.gob" | cut -d' ' -f1)
	if [ "$got" != "$want" ]; then
		echo "scan smoke: benchgen -small -seed 1 -workers $w hashes to $got, want $want" >&2
		exit 1
	fi
done <scripts/suite_small_seed1.sha256

echo "scan smoke: building hsdscan"
go build -o "$WORK/hsdscan" ./cmd/hsdscan

echo "scan smoke: uninterrupted reference scan"
# shellcheck disable=SC2086
"$WORK/hsdscan" -suite "$WORK/suite.gob" $SCAN_ARGS \
	-findings "$WORK/full.txt" >"$WORK/ref.log" 2>&1

echo "scan smoke: the same scan on 8 workers"
# Worker count, completion order and whose cache entry answered a window
# must not show in the findings. A later -workers wins over SCAN_ARGS'.
# shellcheck disable=SC2086
"$WORK/hsdscan" -suite "$WORK/suite.gob" $SCAN_ARGS -workers 8 \
	-findings "$WORK/full8.txt" >"$WORK/ref8.log" 2>&1
if ! cmp "$WORK/full.txt" "$WORK/full8.txt"; then
	echo "scan smoke: findings at -workers 8 differ from -workers 1" >&2
	exit 1
fi

echo "scan smoke: the CNN's scan on 1 and 8 workers and on the portable kernel"
# AdaBoost above never rasterises a tile: the CNN's misses take their
# DCT tensor from tiles shared inside a shard (DESIGN §14), so which
# windows share a worker, and which of them met a tile first, must not
# show either. Default shard height, where a shard is three tile rows.
# The purego build compiles the assembly matmul kernel out; the model it
# trains and the scores it writes must be the AVX2 build's bytes.
CNN_ARGS="-detector CNN-biased -seed 1 -gen-seed 42 -gen-edge $EDGE -top 0"
go build -tags purego -o "$WORK/hsdscan-purego" ./cmd/hsdscan
cnn_scan() { # binary, -workers, name of the findings file
	# shellcheck disable=SC2086
	"$WORK/$1" -suite "$WORK/suite.gob" $CNN_ARGS -workers "$2" \
		-findings "$WORK/$3.txt" >"$WORK/$3.log" 2>&1
}
cnn_scan hsdscan 1 cnn1
cnn_scan hsdscan 8 cnn8
cnn_scan hsdscan-purego 2 cnn-purego
for other in cnn8 cnn-purego; do
	if ! cmp "$WORK/cnn1.txt" "$WORK/$other.txt"; then
		echo "scan smoke: CNN findings in $other.txt differ from hsdscan at -workers 1" >&2
		exit 1
	fi
done
if ! [ -s "$WORK/cnn1.txt" ]; then
	echo "scan smoke: the CNN flagged nothing; the comparison is vacuous" >&2
	exit 1
fi

echo "scan smoke: journaled scan, killing mid-flight"
# shellcheck disable=SC2086
"$WORK/hsdscan" -suite "$WORK/suite.gob" $SCAN_ARGS \
	-journal "$WORK/scan.journal" \
	-findings "$WORK/interrupted.txt" >"$WORK/kill.log" 2>&1 &
SCAN_PID=$!

# The journal header is written at creation (a size threshold cannot
# tell it from a record); kill on the first record frame magic instead.
killed=""
i=0
while [ $i -lt 600 ]; do
	if ! kill -0 "$SCAN_PID" 2>/dev/null; then
		break # scan finished before we could kill it
	fi
	if grep -aq 'HSDSJr2' "$WORK/scan.journal" 2>/dev/null; then
		kill -9 "$SCAN_PID"
		killed=1
		break
	fi
	sleep 0.05
	i=$((i + 1))
done
wait "$SCAN_PID" 2>/dev/null || true
SCAN_PID=""
if [ -z "$killed" ]; then
	echo "scan smoke: scan exited before the kill landed; gate is vacuous" >&2
	cat "$WORK/kill.log" >&2
	exit 1
fi

echo "scan smoke: a fresh run over the killed scan's journal must be refused"
before=$(wc -c <"$WORK/scan.journal")
# shellcheck disable=SC2086
if "$WORK/hsdscan" -suite "$WORK/suite.gob" $SCAN_ARGS \
	-journal "$WORK/scan.journal" >"$WORK/fresh.log" 2>&1; then
	echo "scan smoke: hsdscan without -resume overwrote an existing journal" >&2
	exit 1
fi
grep -q 'already exists; pass -resume' "$WORK/fresh.log" || {
	echo "scan smoke: refusal does not tell the operator about -resume:" >&2
	cat "$WORK/fresh.log" >&2
	exit 1
}
if [ "$(wc -c <"$WORK/scan.journal")" -ne "$before" ]; then
	echo "scan smoke: refused run still modified the journal" >&2
	exit 1
fi

echo "scan smoke: resuming from the torn journal"
# shellcheck disable=SC2086
"$WORK/hsdscan" -suite "$WORK/suite.gob" $SCAN_ARGS \
	-journal "$WORK/scan.journal" -resume \
	-findings "$WORK/resumed.txt" >"$WORK/resume.log" 2>&1

# The resume must have skipped at least one shard but not all of them.
resumed=$(sed -n 's/^shards: [0-9]* done (\([0-9]*\) resumed from journal).*/\1/p' "$WORK/resume.log")
total=$(sed -n 's/^resuming from .*: \([0-9]*\) shards already journaled/\1/p' "$WORK/resume.log")
if [ -z "$resumed" ] || [ "$resumed" -lt 1 ]; then
	echo "scan smoke: resume skipped no shards (resumed=$resumed); kill landed too early or journal was lost" >&2
	cat "$WORK/resume.log" >&2
	exit 1
fi
grep -q 'quarantined' "$WORK/resume.log" || {
	echo "scan smoke: resume log missing shard summary" >&2
	cat "$WORK/resume.log" >&2
	exit 1
}
echo "scan smoke: resumed $resumed journaled shards (journal had $total)"

if ! diff "$WORK/full.txt" "$WORK/resumed.txt" >"$WORK/findings.diff"; then
	echo "scan smoke: kill-resume findings diverge from uninterrupted scan:" >&2
	head -20 "$WORK/findings.diff" >&2
	exit 1
fi
n=$(wc -l <"$WORK/full.txt")
echo "scan smoke: ok ($n findings byte-identical across kill-resume)"
