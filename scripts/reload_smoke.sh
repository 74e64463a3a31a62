#!/usr/bin/env sh
# reload_smoke.sh — end-to-end hot-reload gate.
#
# Boots hsdserve with a neural (MLP) primary and -model naming the one
# file it reloads, and asserts:
#
#   1. GET /admin/model reports the boot generation;
#   2. a reload request that names a path, in a JSON body or a ?path=
#      query, is refused 400 and nothing is loaded or counted;
#   3. hsdtrain -save onto the -model path, then POST /admin/reload with
#      an empty body, gates and swaps the candidate (generation 2), and
#      /score is served by the new generation;
#   4. /metrics exposes hotspot_model_generation and
#      hotspot_reloads_total{outcome="swapped"};
#   5. a corrupt file at the -model path is refused (500, load_failed
#      counted) and the server keeps serving the live generation.
#
# The candidate is trained with the same seed as the live model, so the
# validation gate's golden-set deltas are exactly zero and the smoke
# run is deterministic.

set -eu

ADDR=127.0.0.1:18090
WORK=$(mktemp -d)
MODEL="$WORK/model.hsdnn"
SERVER_PID=""
cleanup() {
	[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

# reload POSTs /admin/reload with body $1 and query $2 and prints the
# status code; the reply lands in $WORK/reload.json.
reload() {
	curl -s -o "$WORK/reload.json" -w '%{http_code}' -X POST \
		--data-binary "$1" "http://$ADDR/admin/reload$2"
}

echo "reload smoke: generating suite"
go run ./cmd/benchgen -small -seed 7 -out "$WORK/suite.gob" >/dev/null

echo "reload smoke: building hsdtrain + hsdserve"
go build -o "$WORK/hsdtrain" ./cmd/hsdtrain
go build -o "$WORK/hsdserve" ./cmd/hsdserve

echo "reload smoke: booting hsdserve with -model"
"$WORK/hsdserve" -suite "$WORK/suite.gob" -detector MLP -seed 1 \
	-model "$MODEL" -addr "$ADDR" >"$WORK/serve.log" 2>&1 &
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
	echo "reload smoke: server never became ready" >&2
	cat "$WORK/serve.log" >&2
	exit 1
fi

curl -fsS "http://$ADDR/admin/model" >"$WORK/model1.json"
grep -q '"generation":1' "$WORK/model1.json"

# A request cannot choose the file: both ways of naming one get 400
# before anything is opened.
for req in "{\"path\":\"$WORK/suite.gob\"}|" "|?path=$WORK/suite.gob"; do
	code=$(reload "${req%%|*}" "${req#*|}")
	if [ "$code" != "400" ]; then
		echo "reload smoke: reload naming a path ($req) returned $code, want 400" >&2
		cat "$WORK/reload.json" >&2
		exit 1
	fi
done
curl -fsS "http://$ADDR/admin/model" | grep -q '"generation":1'
if curl -fsS "http://$ADDR/metrics" | grep -q '^hotspot_reloads_total'; then
	echo "reload smoke: a refused reload was counted" >&2
	exit 1
fi

echo "reload smoke: training the candidate onto the -model path"
"$WORK/hsdtrain" -suite "$WORK/suite.gob" -detector MLP -seed 1 \
	-save "$MODEL" >"$WORK/train.log" 2>&1

# Reload: gate passes (identical model), generation bumps to 2.
code=$(reload "" "")
if [ "$code" != "200" ]; then
	echo "reload smoke: reload returned $code, want 200" >&2
	cat "$WORK/reload.json" >&2
	exit 1
fi
grep -q '"generation":2' "$WORK/reload.json"
grep -q '"ok":true' "$WORK/reload.json"
grep -q "\"source\":\"$MODEL\"" "$WORK/reload.json"

# The swapped generation serves.
printf 'GLT 1\nLAYOUT smoke\nRECT 0 400 1024 500\nRECT 0 536 1024 636\nEND\n' >"$WORK/clip.glt"
curl -fsS --data-binary @"$WORK/clip.glt" "http://$ADDR/score" >"$WORK/score.json"
grep -q '"score"' "$WORK/score.json"

# Reload decisions are observable.
curl -fsS "http://$ADDR/metrics" >"$WORK/metrics.txt"
grep -q 'hotspot_model_generation 2' "$WORK/metrics.txt"
grep -q 'hotspot_reloads_total{outcome="swapped"} 1' "$WORK/metrics.txt"

# A corrupt model is refused and the live generation keeps serving.
head -c 64 /dev/urandom >"$MODEL"
code=$(reload "" "")
if [ "$code" != "500" ]; then
	echo "reload smoke: corrupt model reload returned $code, want 500" >&2
	cat "$WORK/reload.json" >&2
	exit 1
fi
curl -fsS "http://$ADDR/admin/model" | grep -q '"generation":2'
curl -fsS "http://$ADDR/metrics" | grep -q 'hotspot_reloads_total{outcome="load_failed"} 1'
curl -fsS --data-binary @"$WORK/clip.glt" "http://$ADDR/score" | grep -q '"score"'

echo "reload smoke: ok"
