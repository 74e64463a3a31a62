#!/bin/sh
# scripts/router_smoke.sh — router frontier gate.
#
# Trains the routed cascade (pm-fuzzy → boost → cnn) and its members on
# a fixed-seed benchmark and asserts the deterministic half of the
# frontier claim (TestRouterFrontierSmoke): router recall no worse than
# the boost-only row AND no worse than the deep CNN row, with the deep
# stage seeing only the escalated band. Runs under -race so the routed
# scoring paths are exercised under the detector.
#
# Wall-clock ODST dominance is reported by `go run ./cmd/hsdeval
# -figures`, not asserted here (CI boxes are loaded).
set -eu
cd "$(dirname "$0")/.."

out=$(HSD_ROUTER_SMOKE=1 go test -timeout 20m -run 'TestRouterFrontierSmoke' -race -v ./internal/experiments/ 2>&1) || {
	echo "$out"
	echo "router-smoke: FAIL" >&2
	exit 1
}
echo "$out" | grep -v '^=== RUN'
echo "router-smoke: ok"
