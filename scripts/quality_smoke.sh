#!/usr/bin/env sh
# quality_smoke.sh — end-to-end model-quality observability gate.
#
# Drives the paging story against a live hsdserve with a fixed seed.
# Every scored clip is spot-checked by the lithography oracle
# (-spot-check-rate 1), and a mismatch is a bad SLO event:
#
#   1. hsdtrain -save writes a model; hsdserve boots with it as -model
#      and the oracle spot-checking every clip; /debug/quality answers
#      with alert state ok;
#   2. POST /admin/reload swaps the trained model in;
#   3. clean traffic: for at least 4 s the server scores a clip that
#      the model and the oracle both call a hotspot. Every spot check
#      agrees, so the alert stays ok however narrow the score
#      distribution is;
#   4. a confirmed error: a near-empty clip the model scores as a
#      hotspot and the oracle does not. The mismatches burn the fast
#      window's error budget past 2x and the alert pages, on
#      /debug/quality and on /metrics;
#   5. POST /admin/rollback resets the monitor's windows; with clean
#      (empty) windows the alert clears to ok after the clear hold of
#      two sub-windows.
#
# Sub-windows are shrunk to 1s so the page and the hysteresis clear both
# happen within seconds.

set -eu

ADDR=127.0.0.1:18092
WORK=$(mktemp -d)
SERVER_PID=""
cleanup() {
	[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "quality smoke: generating suite"
go run ./cmd/benchgen -small -seed 7 -out "$WORK/suite.gob" >/dev/null

echo "quality smoke: building hsdtrain + hsdserve"
go build -o "$WORK/hsdtrain" ./cmd/hsdtrain
go build -o "$WORK/hsdserve" ./cmd/hsdserve

echo "quality smoke: training model"
"$WORK/hsdtrain" -suite "$WORK/suite.gob" -detector MLP -seed 1 \
	-save "$WORK/candidate.hsdnn" >"$WORK/train.log" 2>&1

echo "quality smoke: booting hsdserve with -spot-check-rate 1"
"$WORK/hsdserve" -suite "$WORK/suite.gob" -detector MLP -seed 1 \
	-model "$WORK/candidate.hsdnn" \
	-spot-check-rate 1 -quality-window 1s -slo-target 0.9 \
	-addr "$ADDR" >"$WORK/serve.log" 2>&1 &
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
	echo "quality smoke: server never became ready" >&2
	cat "$WORK/serve.log" >&2
	exit 1
fi

# Fresh monitor: nothing observed yet, alert ok.
curl -fsS "http://$ADDR/debug/quality" >"$WORK/q0.json"
grep -q '"state":0' "$WORK/q0.json"

curl -fsS -X POST "http://$ADDR/admin/reload" >"$WORK/reload.json"
grep -q '"ok":true' "$WORK/reload.json"

# Clean traffic for at least 4 s (more than the 3 s fast window): one
# clip, every score in one histogram bin, every spot check agreeing
# with the model's hotspot verdict. Nothing may page.
printf 'GLT 1\nLAYOUT smoke\nRECT 0 400 1024 500\nRECT 0 536 1024 636\nEND\n' >"$WORK/clip.glt"
curl -fsS --data-binary @"$WORK/clip.glt" "http://$ADDR/score" >"$WORK/clip.json"
grep -q '"hotspot":true' "$WORK/clip.json"
until=$(($(date +%s) + 5))
while [ "$(date +%s)" -lt "$until" ]; do
	i=0
	while [ $i -lt 5 ]; do
		curl -fsS --data-binary @"$WORK/clip.glt" "http://$ADDR/score" >/dev/null
		i=$((i + 1))
	done
	curl -fsS "http://$ADDR/debug/quality" >"$WORK/q1.json"
	if ! grep -q '"state":0' "$WORK/q1.json"; then
		echo "quality smoke: clean traffic the oracle agrees with moved the alert" >&2
		cat "$WORK/q1.json" >&2
		cat "$WORK/serve.log" >&2
		exit 1
	fi
	sleep 0.2
done
if ! grep -q '"mismatches_total":0,' "$WORK/q1.json" || grep -q '"sampled_total":0,' "$WORK/q1.json"; then
	echo "quality smoke: want the clean clip spot-checked with no mismatch" >&2
	cat "$WORK/q1.json" >&2
	exit 1
fi

# A confirmed error: the model calls this near-empty clip a hotspot and
# the oracle does not. Each spot-check mismatch is a bad SLO event, so
# the fast window's burn passes 2x and the alert pages.
printf 'GLT 1\nLAYOUT shift\nRECT 0 0 8 8\nEND\n' >"$WORK/shift.glt"
curl -fsS --data-binary @"$WORK/shift.glt" "http://$ADDR/score" >"$WORK/shift.json"
grep -q '"hotspot":true' "$WORK/shift.json"
paged=""
round=0
while [ $round -lt 40 ]; do
	curl -fsS --data-binary @"$WORK/shift.glt" "http://$ADDR/score" >/dev/null
	if curl -fsS "http://$ADDR/debug/quality" | grep -q '"state":2'; then
		paged=1
		break
	fi
	sleep 0.1
	round=$((round + 1))
done
if [ -z "$paged" ]; then
	echo "quality smoke: spot-check mismatches never paged the alert" >&2
	curl -fsS "http://$ADDR/debug/quality" >&2 || true
	cat "$WORK/serve.log" >&2
	exit 1
fi

# The page and the mismatches behind it are on /metrics.
curl -fsS "http://$ADDR/metrics" >"$WORK/metrics.txt"
grep -q 'hotspot_quality_alert_state 2' "$WORK/metrics.txt"
grep -Eq 'hotspot_spot_check_mismatches_total [1-9]' "$WORK/metrics.txt"

# Rollback resets the monitor's windows; with the mismatching traffic
# gone the alert steps down to ok after the clear-hold hysteresis (2s
# at this window size), never instantly.
curl -fsS -X POST "http://$ADDR/admin/rollback" >"$WORK/rollback.json"
cleared=""
i=0
while [ $i -lt 60 ]; do
	if curl -fsS "http://$ADDR/debug/quality" | grep -q '"state":0'; then
		cleared=1
		break
	fi
	sleep 0.5
	i=$((i + 1))
done
if [ -z "$cleared" ]; then
	echo "quality smoke: alert never cleared after rollback" >&2
	curl -fsS "http://$ADDR/debug/quality" >&2 || true
	cat "$WORK/serve.log" >&2
	exit 1
fi
curl -fsS "http://$ADDR/metrics" | grep -q 'hotspot_quality_alert_state 0'

echo "quality smoke: ok"
