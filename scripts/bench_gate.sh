#!/bin/sh
# scripts/bench_gate.sh — batched-inference regression gate.
#
# Re-measures the per-sample scoring loop and the batched inference
# engine (BenchmarkPredictBatch/serial-score and /batch-w1) and compares
# the serial/batch RATIO against the ratio of the last committed entries
# in BENCH_inference.json. Since nn.Score runs one row through the same
# arena-backed ForwardBatch that PredictBatch runs 32 at a time, the two
# sides share every kernel and the committed ratio sits near 1.0; what
# the gate guards is the batch path: it may not fall more than 10%
# behind the per-sample path it shares an arena with (chunk staging,
# pool sharding and arena growth are the batch path's own). Comparing
# ratios instead of raw ns/op makes the gate machine-independent: a
# slower box slows both sides. Each side is the best of three runs, so
# one noisy neighbour does not decide it.
set -eu
cd "$(dirname "$0")/.."

fresh=$(go test -timeout 10m -bench 'PredictBatch/(serial-score$|batch-w1$)' -benchtime 300ms -count 3 -run XXX .)
echo "$fresh" | grep '^Benchmark' || { echo "bench-gate: no benchmark output" >&2; exit 1; }

now_serial=$(echo "$fresh" | awk '$1 ~ /PredictBatch\/serial-score(-[0-9]+)?$/ && (m == "" || $3 < m) {m = $3} END {print m}')
now_batch=$(echo "$fresh" | awk '$1 ~ /PredictBatch\/batch-w1(-[0-9]+)?$/ && (m == "" || $3 < m) {m = $3} END {print m}')
if [ -z "$now_serial" ] || [ -z "$now_batch" ]; then
	echo "bench-gate: could not parse fresh benchmark output" >&2
	exit 1
fi

base_serial=$(grep -o '"name":"BenchmarkPredictBatch/serial-score\(-[0-9]*\)\{0,1\}","ns_per_op":[0-9.e+]*' BENCH_inference.json | tail -1 | sed 's/.*ns_per_op"://')
base_batch=$(grep -o '"name":"BenchmarkPredictBatch/batch-w1\(-[0-9]*\)\{0,1\}","ns_per_op":[0-9.e+]*' BENCH_inference.json | tail -1 | sed 's/.*ns_per_op"://')
if [ -z "$base_serial" ] || [ -z "$base_batch" ]; then
	echo "bench-gate: no committed baseline in BENCH_inference.json; run run_bench.sh to record one (gate skipped)"
	exit 0
fi

awk -v ns="$now_serial" -v nb="$now_batch" -v bs="$base_serial" -v bb="$base_batch" 'BEGIN {
	now = ns / nb
	base = bs / bb
	printf "bench-gate: serial/batch ratio now %.3fx, committed baseline %.3fx\n", now, base
	if (now < base * 0.9) {
		printf "bench-gate: FAIL — the batch path fell >10%% behind the per-sample path, relative to the committed ratio\n"
		exit 1
	}
	print "bench-gate: ok"
}'
