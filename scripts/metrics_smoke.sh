#!/usr/bin/env sh
# metrics_smoke.sh — no /metrics series appears, vanishes or is renamed
# unnoticed.
#
# Boots hsdserve twice on the -small -seed 1 suite, scrapes /metrics, and
# diffs what an operator's dashboards depend on against
# scripts/metrics.golden: every "# HELP" and "# TYPE" line, and the set
# of series names with their label keys (label values and sample values
# stripped, so counts and timings do not matter).
#
#   shallow: an SVM primary with -fallback AdaBoost -quality
#            -learn-wal -shed-rate 100, after one POST /score and one
#            POST /batch (the /score handler under its own endpoint
#            label): the serving cascade, the tracer, the quality
#            monitor and the data engine on one page (-learn-margin 1
#            puts the posted clip's SVM margin inside the mining band,
#            so the labelled learn_candidates_total series exists);
#   cnn:     a CNN-biased primary (a neural primary is the only kind
#            that mounts the model registry) after one GET /admin/model.
#
# Same idea as flags_smoke.sh and api_smoke.sh. A deliberate change to
# the exposition reruns this with -update and commits the golden.

set -eu
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:18094
WORK=$(mktemp -d)
SERVER_PID=""
cleanup() {
	[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

go run ./cmd/benchgen -small -seed 1 -out "$WORK/suite.gob" >/dev/null
go build -o "$WORK/hsdserve" ./cmd/hsdserve
printf 'GLT 1\nLAYOUT smoke\nRECT 0 400 1024 500\nRECT 0 536 1024 636\nEND\n' >"$WORK/clip.glt"

# boot <name> <hsdserve args...>: start the server and wait for /readyz.
boot() {
	name=$1
	shift
	"$WORK/hsdserve" -suite "$WORK/suite.gob" -seed 1 -addr "$ADDR" "$@" >"$WORK/$name.log" 2>&1 &
	SERVER_PID=$!
	i=0
	until curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ $i -gt 240 ] || ! kill -0 "$SERVER_PID" 2>/dev/null; then
			echo "metrics smoke: $name server never became ready" >&2
			cat "$WORK/$name.log" >&2
			exit 1
		fi
		sleep 0.5
	done
}

# scrape <name>: normalise /metrics into "<name> <line>" records and stop
# the server.
scrape() {
	curl -fsS "http://$ADDR/metrics" | sed -E \
		-e '/^#/b' \
		-e 's/ [^ ]+$//' \
		-e 's/="[^"]*"//g' |
		sed "s/^/$1 /" >>"$WORK/metrics.raw"
	kill -TERM "$SERVER_PID"
	wait "$SERVER_PID" 2>/dev/null || true
	SERVER_PID=""
}

boot shallow -detector SVM -fallback AdaBoost -quality \
	-learn-wal "$WORK/learn.wal" -learn-margin 1 -shed-rate 100
curl -fsS --data-binary @"$WORK/clip.glt" "http://$ADDR/score" >/dev/null
curl -fsS --data-binary @"$WORK/clip.glt" "http://$ADDR/batch" >/dev/null
scrape shallow

boot cnn -detector CNN-biased
curl -fsS "http://$ADDR/admin/model" >/dev/null
scrape cnn

LC_ALL=C sort -u "$WORK/metrics.raw" >"$WORK/metrics.txt"

if [ "${1:-}" = "-update" ]; then
	cp "$WORK/metrics.txt" scripts/metrics.golden
fi
diff -u scripts/metrics.golden "$WORK/metrics.txt" || {
	echo "metrics smoke: the /metrics exposition moved; if intended, rerun with -update and commit scripts/metrics.golden" >&2
	exit 1
}
echo "metrics smoke: ok ($(wc -l <"$WORK/metrics.txt" | tr -d ' ') lines across 2 servers)"
