#!/usr/bin/env sh
# quality_smoke.sh — end-to-end model-quality observability gate.
#
# Drives the paging story against a live hsdserve with a fixed seed.
# The SLO's events are serve outcomes: a primary answer within -deadline
# is good, a primary failure bad. Every scored clip is also spot-checked
# by the lithography oracle (-spot-check-rate 1); a mismatch is counted
# and mined, but it is not an SLO event and never pages:
#
#   1. an out-of-range quality flag is refused before the suite is read,
#      with an error naming the flag;
#   2. hsdtrain -save writes a model; hsdserve boots with it as -model
#      at -slo-target 0.99 and the oracle spot-checking every clip;
#      /debug/quality answers with alert state ok;
#   3. POST /admin/reload swaps the trained model in;
#   4. clean traffic: every clip of the suite's first test split is
#      scored once. The oracle contradicts some of the model's verdicts,
#      enough to page had mismatches been bad events; the alert stays ok;
#   5. a confirmed error: a near-empty clip the model scores as a
#      hotspot and the oracle does not. hotspot_spot_check_mismatches_total
#      rises and the alert stays ok;
#   6. primary failures: a clip near layout.MaxClipShapes, whose scoring
#      overruns -deadline, burns the fast window's budget past 2x and the
#      alert pages, on /debug/quality and on /metrics;
#   7. POST /admin/rollback resets the monitor's windows; with clean
#      (empty) windows the alert clears to ok after the clear hold of
#      two sub-windows.
#
# Sub-windows are shrunk to 1s so the page and the hysteresis clear both
# happen within seconds. -probation 0: the deadline failures that page
# would otherwise roll the reloaded model back before the page is read.

set -eu

ADDR=127.0.0.1:18092
WORK=$(mktemp -d)
SERVER_PID=""
cleanup() {
	[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

# quality prints /debug/quality.
quality() { curl -fsS "http://$ADDR/debug/quality"; }

# mismatches prints the cumulative spot-check mismatch count.
mismatches() { quality | sed 's/.*"mismatches_total":\([0-9]*\).*/\1/'; }

echo "quality smoke: building hsdtrain + hsdserve"
go build -o "$WORK/hsdtrain" ./cmd/hsdtrain
go build -o "$WORK/hsdserve" ./cmd/hsdserve

# An -slo-target outside (0, 1) used to turn alerting off without a
# word. It is refused before the (missing) suite is opened.
if "$WORK/hsdserve" -suite "$WORK/missing.gob" -slo-target 1 >"$WORK/refused.log" 2>&1; then
	echo "quality smoke: hsdserve accepted -slo-target 1" >&2
	exit 1
fi
if ! grep -q -- '-slo-target' "$WORK/refused.log"; then
	echo "quality smoke: the refusal does not name -slo-target:" >&2
	cat "$WORK/refused.log" >&2
	exit 1
fi

echo "quality smoke: generating suite"
go run ./cmd/benchgen -small -seed 7 -out "$WORK/suite.gob" >/dev/null

# Every clip of the suite's first test split, one GLT file each, through
# the hsd facade.
mkdir "$WORK/clips" "$WORK/export"
cat >"$WORK/export/main.go" <<'EOF'
// Command export writes each clip of a suite's first test split as a
// GLT layout: export SUITE DIR.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	hsd "github.com/golitho/hsd"
)

func main() {
	f, err := os.Open(os.Args[1])
	if err != nil {
		log.Fatal(err)
	}
	suite, err := hsd.LoadSuite(f)
	if err != nil {
		log.Fatal(err)
	}
	for i, c := range hsd.FromSamples(suite.Benchmarks[0].Test.Samples) {
		l := hsd.NewLayout(fmt.Sprintf("test%d", i))
		for _, r := range c.Clip.Shapes {
			if err := l.AddRect(r); err != nil {
				log.Fatal(err)
			}
		}
		out, err := os.Create(filepath.Join(os.Args[2], fmt.Sprintf("%03d.glt", i)))
		if err != nil {
			log.Fatal(err)
		}
		if err := hsd.WriteLayout(out, l); err != nil {
			log.Fatal(err)
		}
		if err := out.Close(); err != nil {
			log.Fatal(err)
		}
	}
}
EOF
go run "$WORK/export/main.go" "$WORK/suite.gob" "$WORK/clips"

echo "quality smoke: training model"
"$WORK/hsdtrain" -suite "$WORK/suite.gob" -detector MLP -seed 1 \
	-save "$WORK/candidate.hsdnn" >"$WORK/train.log" 2>&1

echo "quality smoke: booting hsdserve with -spot-check-rate 1 -slo-target 0.99"
"$WORK/hsdserve" -suite "$WORK/suite.gob" -detector MLP -seed 1 \
	-model "$WORK/candidate.hsdnn" -probation 0 -deadline 40ms \
	-spot-check-rate 1 -quality-window 1s -slo-target 0.99 \
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
quality >"$WORK/q0.json"
grep -q '"state":0' "$WORK/q0.json"

curl -fsS -X POST "http://$ADDR/admin/reload" >"$WORK/reload.json"
grep -q '"ok":true' "$WORK/reload.json"

# Clean traffic: the first test split, each clip once. Nothing may page.
n=0
for clip in "$WORK"/clips/*.glt; do
	curl -fsS --data-binary @"$clip" "http://$ADDR/score" >/dev/null
	n=$((n + 1))
done
sleep 1 # the oracle works through the spot checks
quality >"$WORK/q1.json"
clean_miss=$(mismatches)
echo "quality smoke: $n clean clips scored, $clean_miss spot-check mismatches"
if ! grep -q '"state":0' "$WORK/q1.json"; then
	echo "quality smoke: the test split's own traffic moved the alert" >&2
	cat "$WORK/q1.json" >&2
	cat "$WORK/serve.log" >&2
	exit 1
fi
if [ "$clean_miss" -eq 0 ] || grep -q '"sampled_total":0,' "$WORK/q1.json"; then
	echo "quality smoke: want the clean clips spot-checked, some against the model's verdict" >&2
	cat "$WORK/q1.json" >&2
	exit 1
fi

# A confirmed error: the model calls this near-empty clip a hotspot and
# the oracle does not. Each post (a score-cache hit after the first) is
# spot-checked again: the mismatches rise, and the alert stays ok.
printf 'GLT 1\nLAYOUT shift\nRECT 0 0 8 8\nEND\n' >"$WORK/shift.glt"
curl -fsS --data-binary @"$WORK/shift.glt" "http://$ADDR/score" >"$WORK/shift.json"
grep -q '"hotspot":true' "$WORK/shift.json"
i=0
while [ $i -lt 10 ]; do
	curl -fsS --data-binary @"$WORK/shift.glt" "http://$ADDR/score" >/dev/null
	i=$((i + 1))
done
sleep 1
quality >"$WORK/q2.json"
if ! grep -q '"state":0' "$WORK/q2.json" || [ "$(mismatches)" -le "$clean_miss" ]; then
	echo "quality smoke: want the mismatches to rise past $clean_miss with the alert ok" >&2
	cat "$WORK/q2.json" >&2
	exit 1
fi
curl -fsS "http://$ADDR/metrics" >"$WORK/metrics.txt"
grep -q 'hotspot_quality_alert_state 0' "$WORK/metrics.txt"
grep -Eq 'hotspot_spot_check_mismatches_total [1-9]' "$WORK/metrics.txt"

# Primary failures page: 1 000 overlapping shapes, under the 1 024 the
# server admits, take the primary past -deadline (about 130 ms against
# 40 ms; a clean clip takes about 1 ms). A failed answer is not cached,
# so each post is one bad serve outcome. The breaker opens after 5
# straight failures and then reports no outcomes, so at most 4 are sent.
awk 'BEGIN { print "GLT 1"; print "LAYOUT heavy"
	for (i = 0; i < 1000; i++) printf "RECT %d %d %d %d\n", i % 7, i % 5, 1024 - i % 3, 1024 - i % 11
	print "END" }' >"$WORK/heavy.glt"
paged=""
i=0
while [ $i -lt 4 ]; do
	curl -sS -o /dev/null --data-binary @"$WORK/heavy.glt" "http://$ADDR/score"
	if quality | grep -q '"state":2'; then
		paged=1
		break
	fi
	i=$((i + 1))
done
if [ -z "$paged" ]; then
	echo "quality smoke: primary failures never paged the alert" >&2
	quality >&2 || true
	cat "$WORK/serve.log" >&2
	exit 1
fi

# The page and the failures behind it are on /metrics.
curl -fsS "http://$ADDR/metrics" >"$WORK/metrics.txt"
grep -q 'hotspot_quality_alert_state 2' "$WORK/metrics.txt"
grep -Eq 'hotspot_primary_failures_total [1-9]' "$WORK/metrics.txt"

# Rollback resets the monitor's windows; with the failing traffic gone
# the alert steps down to ok after the clear-hold hysteresis (2s at this
# window size), never instantly.
curl -fsS -X POST "http://$ADDR/admin/rollback" >"$WORK/rollback.json"
cleared=""
i=0
while [ $i -lt 60 ]; do
	if quality | grep -q '"state":0'; then
		cleared=1
		break
	fi
	sleep 0.5
	i=$((i + 1))
done
if [ -z "$cleared" ]; then
	echo "quality smoke: alert never cleared after rollback" >&2
	quality >&2 || true
	cat "$WORK/serve.log" >&2
	exit 1
fi
curl -fsS "http://$ADDR/metrics" | grep -q 'hotspot_quality_alert_state 0'

echo "quality smoke: ok"
