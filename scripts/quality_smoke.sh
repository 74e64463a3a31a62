#!/usr/bin/env sh
# quality_smoke.sh — end-to-end model-quality observability gate.
#
# Drives the full drift story against a live hsdserve with a fixed seed:
#
#   1. hsdtrain -save -quality-baseline auto writes the model plus its
#      <model>.qb score-distribution sidecar;
#   2. hsdserve boots with -quality; /debug/quality answers with alert
#      state ok and no baseline;
#   3. POST /admin/reload swaps the trained model in and the server
#      installs the sidecar baseline (has_baseline flips true);
#   4. an injected covariate shift (repeatedly scoring one pathological
#      clip far from the training distribution) pushes PSI over the
#      drift threshold: the alert pages within the fast window, the
#      drift gauge and event counter land on /metrics, and the trace
#      store retains a quality.drift trace;
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

echo "quality smoke: training model + baseline sidecar"
"$WORK/hsdtrain" -suite "$WORK/suite.gob" -detector MLP -seed 1 \
	-save "$WORK/candidate.hsdnn" -quality-baseline auto \
	>"$WORK/train.log" 2>&1
grep -q 'quality baseline' "$WORK/train.log"
[ -s "$WORK/candidate.hsdnn.qb" ]

echo "quality smoke: booting hsdserve with -quality"
"$WORK/hsdserve" -suite "$WORK/suite.gob" -detector MLP -seed 1 \
	-quality -quality-window 1s -drift-threshold 0.25 -slo-target 0.9 \
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

# Fresh monitor: no sketches yet, alert ok.
curl -fsS "http://$ADDR/debug/quality" >"$WORK/q0.json"
grep -q '"state":0' "$WORK/q0.json"

# Traffic before any baseline: sketches exist but carry no drift score.
printf 'GLT 1\nLAYOUT smoke\nRECT 0 400 1024 500\nRECT 0 536 1024 636\nEND\n' >"$WORK/clip.glt"
i=0
while [ $i -lt 10 ]; do
	curl -fsS --data-binary @"$WORK/clip.glt" "http://$ADDR/score" >/dev/null
	i=$((i + 1))
done
curl -fsS "http://$ADDR/debug/quality" >"$WORK/q1.json"
grep -q '"has_baseline":false' "$WORK/q1.json"

# Hot reload installs the model's baseline sidecar alongside the swap.
curl -fsS -X POST -d "{\"path\":\"$WORK/candidate.hsdnn\"}" \
	"http://$ADDR/admin/reload" >"$WORK/reload.json"
grep -q '"ok":true' "$WORK/reload.json"
curl -fsS "http://$ADDR/debug/quality" >"$WORK/q2.json"
grep -q '"has_baseline":true' "$WORK/q2.json"

# Covariate shift: one pathological near-empty clip, nothing like the
# training layouts, scored repeatedly. All live mass lands in one
# histogram bin, so PSI against the training baseline blows through the
# threshold and the alert pages within the 3s fast window.
printf 'GLT 1\nLAYOUT shift\nRECT 0 0 8 8\nEND\n' >"$WORK/shift.glt"
paged=""
round=0
while [ $round -lt 20 ]; do
	i=0
	while [ $i -lt 20 ]; do
		curl -fsS --data-binary @"$WORK/shift.glt" "http://$ADDR/score" >/dev/null
		i=$((i + 1))
	done
	if curl -fsS "http://$ADDR/debug/quality" | grep -q '"state":2'; then
		paged=1
		break
	fi
	round=$((round + 1))
done
if [ -z "$paged" ]; then
	echo "quality smoke: injected shift never paged the alert" >&2
	curl -fsS "http://$ADDR/debug/quality" >&2 || true
	cat "$WORK/serve.log" >&2
	exit 1
fi

# The page, the drift score, and the drift event are all observable.
curl -fsS "http://$ADDR/metrics" >"$WORK/metrics.txt"
grep -q 'hotspot_quality_alert_state 2' "$WORK/metrics.txt"
grep -q 'hotspot_drift_score{' "$WORK/metrics.txt"
grep -Eq 'hotspot_quality_drift_events_total [1-9]' "$WORK/metrics.txt"
curl -fsS "http://$ADDR/debug/traces" | grep -q 'quality.drift'

# Rollback resets the monitor's windows; with the shifted traffic gone
# the alert steps down to ok after the clear-hold hysteresis (2s at this
# window size), never instantly.
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
