#!/usr/bin/env sh
# trace_smoke.sh — end-to-end tracing gate.
#
# Boots hsdserve with tracing, a trace store of CAPACITY traces and a
# private debug listener, scores one GLT clip, and asserts:
#
#   1. /debug/traces returns the /score trace with non-empty child
#      spans (raster, features, inference under the http root);
#   2. /debug/traces/chrome emits parseable trace_event JSON;
#   3. /metrics exposes the hotspot_stage_seconds decomposition;
#   4. the pprof index answers on the debug listener;
#   5. after more traced requests than CAPACITY, /debug/traces?limit=0
#      lists exactly CAPACITY traces, all of them the latest requests'.
#
# AdaBoost is the detector: it trains in seconds and its scoring path
# exercises the full raster -> features -> inference pipeline.

set -eu

ADDR=127.0.0.1:18080
DEBUG_ADDR=127.0.0.1:18081
CAPACITY=8
WORK=$(mktemp -d)
SERVER_PID=""
cleanup() {
	[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "trace smoke: generating suite"
go run ./cmd/benchgen -small -seed 7 -out "$WORK/suite.gob" >/dev/null

echo "trace smoke: booting hsdserve"
go build -o "$WORK/hsdserve" ./cmd/hsdserve
"$WORK/hsdserve" -suite "$WORK/suite.gob" -detector AdaBoost \
	-addr "$ADDR" -debug-addr "$DEBUG_ADDR" -trace-capacity "$CAPACITY" \
	>"$WORK/serve.log" 2>&1 &
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
if [ -z "$ready" ]; then
	echo "trace smoke: server never became ready" >&2
	cat "$WORK/serve.log" >&2
	exit 1
fi

printf 'GLT 1\nLAYOUT smoke\nRECT 0 400 1024 500\nRECT 0 536 1024 636\nEND\n' >"$WORK/clip.glt"
curl -fsS --data-binary @"$WORK/clip.glt" "http://$ADDR/score" >"$WORK/score.json"
grep -q '"score"' "$WORK/score.json"

# The /score trace must be retained with the pipeline stages as child
# spans of the http root.
curl -fsS "http://$ADDR/debug/traces?limit=16" >"$WORK/traces.json"
for span in 'http /score' raster features inference; do
	if ! grep -q "\"$span\"" "$WORK/traces.json"; then
		echo "trace smoke: /debug/traces missing span \"$span\"" >&2
		cat "$WORK/traces.json" >&2
		exit 1
	fi
done
grep -q '"parentId"' "$WORK/traces.json" # child spans, not just roots

# Chrome export parses and carries complete ("X") events.
curl -fsS "http://$ADDR/debug/traces/chrome?limit=16" >"$WORK/chrome.json"
grep -q '"ph":"X"' "$WORK/chrome.json" || grep -q '"ph": *"X"' "$WORK/chrome.json"

# Stage attribution reached the metrics registry.
curl -fsS "http://$ADDR/metrics" >"$WORK/metrics.txt"
grep -q 'hotspot_stage_seconds_count{stage="inference"' "$WORK/metrics.txt"

# pprof answers on the private listener only.
curl -fsS "http://$DEBUG_ADDR/debug/pprof/" >"$WORK/pprof.html"
grep -qi pprof "$WORK/pprof.html"
if curl -fsS "http://$ADDR/debug/pprof/" >/dev/null 2>&1; then
	echo "trace smoke: pprof leaked onto the public listener" >&2
	exit 1
fi

# Retention: the store keeps exactly the last CAPACITY traces. The
# readiness polls, the /score and /metrics requests above are traced
# too; the last 2*CAPACITY are /healthz, each a one-span trace.
i=0
while [ $i -lt $((2 * CAPACITY)) ]; do
	curl -fsS "http://$ADDR/healthz" >/dev/null
	i=$((i + 1))
done
curl -fsS "http://$ADDR/debug/traces?limit=0" >"$WORK/all.json"
kept=$(grep -o '"traceId"' "$WORK/all.json" | wc -l)
healthz=$(grep -o '"root":"http /healthz"' "$WORK/all.json" | wc -l)
if [ "$kept" -ne "$CAPACITY" ] || [ "$healthz" -ne "$CAPACITY" ]; then
	echo "trace smoke: /debug/traces?limit=0 lists $kept traces ($healthz /healthz) after $((2 * CAPACITY)) /healthz requests, want $CAPACITY (all /healthz)" >&2
	exit 1
fi

echo "trace smoke: ok"
