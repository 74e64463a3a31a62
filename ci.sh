#!/usr/bin/env sh
# ci.sh — the repo's verification gate. Mirrors what a reviewer runs:
#
#   gofmt, vet (the assembly kernel's declarations included), build, a
#   cross-build of the portable path, unit + property tests under the
#   race detector and again on the portable matmul kernel, the chaos and
#   kill-resume suites, the end-to-end smoke scripts, a check that no
#   binary's flag set, no facade name and no /metrics series moved and
#   that nothing is bound after construction, a smoke pass over the
#   fuzz seed corpora, 10 s of real fuzzing each on the frame reader, the
#   plain matmul and the addressed matmul, and a quick pass of the repo
#   benchmark's four workloads.
#
# Usage: ./ci.sh [-short]
#   -short  pass -short to go test (skips the slower property tests)

set -eu

short=""
if [ "${1:-}" = "-short" ]; then
	short="-short"
fi

echo "== gofmt =="
# Any file gofmt would rewrite fails the gate.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "ci: gofmt -l prints:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== portable cross-build =="
# internal/tensor's assembly kernel exists for amd64 only. Building and
# vetting for another architecture (works offline, runs nothing) is what
# catches a symbol that only the amd64 files define.
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/tensor/ ./internal/nn/ ./internal/fft/ ./internal/features/

echo "== go test -race =="
go test -race $short ./...

echo "== portable kernel =="
# -tags purego compiles the assembly out (its build constraint is
# amd64 && !purego), so the kernel property tests, the conv (scoring and
# training) and block-DCT equivalences and the byte goldens
# (trainstep_golden.json, both misspath goldens, the oracle's
# aerial_golden.json and the small suite's digest) are proven on the Go kernel too on every run: a model trained,
# a window scored or a clip labelled on a machine without AVX2 gives the
# same bytes. So are the feature tiles a scan shard shares: a tensor
# assembled from them has DCT.Extract's bits (internal/features) and the
# farm's findings are core.ScanCtx's (internal/scanfarm).
go test -tags purego $short ./internal/tensor/ ./internal/nn/ ./internal/core/ ./internal/fft/ ./internal/features/ ./internal/lithosim/ ./internal/iccad/ ./internal/scanfarm/

echo "== chaos smoke =="
# The chaos tests inject faults (latency, errors, panics) into the
# primary detector and the scan loop, asserting the serving cascade
# degrades instead of failing; -race because degradation is concurrent.
# The cascade parity tests ride along: /score and /batch run one
# degradation ladder, so the same fault must give the same status,
# verdict provenance, counters and trace flags through either. So do the
# shared-instance tests: every caller scores on the one fitted detector
# with no clone and no lock, so the zoo, the CNN behind concurrent POST
# /score and the un-cloned scan detector must each answer their serial
# bits from many goroutines under the detector.
go test -run 'Chaos|TestCascade|TestSharedInstanceConcurrentScore|TestSharedDetectorConcurrentScore|TestConcurrentScoreSharedCNN' -race . ./internal/serve/ ./internal/core/

echo "== kill-resume chaos =="
# Training is killed at several injected fault points and resumed from
# the checkpoint; the resumed model must be byte-identical to the
# uninterrupted run. -race because resume replays concurrent-safe RNG
# and optimizer state. The TestTrainStep tests hold the sample-sharded
# training step to the bytes the serial loop trained (a golden written
# at the commit before it), under 1, 2 and 8 kernel workers and with
# fits running side by side on the one pool.
go test -run 'TestKillResume|TestStopResume|TestCheckpointTornWrite|TestTrainStep' -race ./internal/nn/

echo "== scan farm chaos =="
# The shard coordinator is hammered with injected faults (errors,
# panics, latency) and repeated kill-resume cycles over one journal;
# findings must stay byte-identical to an uninterrupted serial scan
# and the shared clip cache must hold under -race.
go test -run 'TestChaosFarm' -race ./internal/scanfarm/

echo "== router equivalence =="
# The routing-equivalence property layer: for any band setting the
# router's verdicts must be bit-identical to the answering stage's raw
# verdict, and always-escalate mode must reproduce the final detector's
# confusion matrix. -race because scan workers and batch calls share the
# one router, its members and its atomic routing counters.
go test -run 'TestRouter|TestFitBand|TestCalibrat|TestGate.*Router' -race ./internal/router/ ./internal/registry/

echo "== router smoke =="
# End to end: train the routed cascade and its members on a fixed-seed
# benchmark; router recall must hold against both the boost-only and
# the deep rows while the deep stage sees only the escalated band.
./scripts/router_smoke.sh

echo "== flags smoke =="
# The five detector binaries' flag names are a committed list: a flag
# cannot appear, vanish or be renamed without the diff showing it.
./scripts/flags_smoke.sh

echo "== api smoke =="
# Package hsd's exported names are a committed list too: the facade
# cannot grow or shrink without the diff showing it.
./scripts/api_smoke.sh

echo "== metrics smoke =="
# So is what GET /metrics exposes: every HELP and TYPE line and every
# series name with its label keys, from a Router and a CNN hsdserve.
./scripts/metrics_smoke.sh

echo "== baseline smoke =="
# hsdtrain -quality-baseline on the Router row writes the per-stage
# series it always wrote, byte for byte.
./scripts/baseline_smoke.sh

echo "== one observer idiom =="
# An optional observer (metrics registry, tracer, hook) is handed over
# in the component's config and may be nil; nothing is bound to a value
# after it is constructed (DESIGN §9).
if grep -rnE 'func \(.*\) Bind[A-Z]' --include='*.go' . | grep -v _test.go; then
	echo "ci: a Bind* method is back; pass the observer in the config instead" >&2
	exit 1
fi

echo "== scan smoke =="
# End to end: hsdscan is SIGKILLed mid-scan with a journal attached,
# then rerun with -resume; the stitched findings file must diff clean
# against an uninterrupted scan of the same chip.
./scripts/scan_smoke.sh

echo "== fuzz seed smoke =="
# -run=Fuzz executes every fuzz target once per seed corpus entry,
# without the fuzzing engine; crashes here mean a regressed parser,
# model loader or frame reader, or a matmul kernel that disagrees with
# the portable one on a seed shape.
go test -run=Fuzz ./internal/layout/ ./internal/gdsii/ ./internal/nn/ ./internal/framelog/ ./internal/tensor/

echo "== frame reader fuzz =="
# A bounded budget of real fuzzing on the one frame reader every
# durable file (model, checkpoint, journal, WAL, baseline) is read
# through: it must fail with a documented error or round-trip.
go test -run='^$' -fuzz=FuzzReadFrame -fuzztime=10s ./internal/framelog/

echo "== matmul kernel fuzz =="
# And 10 s each on the two faces of the hand-written matmul kernel. The
# plain product is under every dense layer and every A·Bᵀ. The addressed
# one is under the convolutions forward and backward, the block DCT and
# the oracle's blur, which index its right operand through a row table
# they built themselves, stride its left operand and carry sums on from
# one call to the next: both kernels must agree with the scalar loop on
# whatever shape, strides, offsets and starting sums the engine finds.
go test -run='^$' -fuzz=FuzzMatMulKernel -fuzztime=10s ./internal/tensor/
go test -run='^$' -fuzz=FuzzAddressedKernel -fuzztime=10s ./internal/tensor/

echo "== trace store race =="
# The trace store and tail sampler are hit from every request
# goroutine; their concurrency tests must hold under the detector.
go test -run 'TestConcurrentAppendRead|TestChaosTailSampling' -race ./internal/trace/

echo "== trace smoke =="
# End to end: boot hsdserve with tracing and a debug listener, score
# one clip, and assert /debug/traces returns that request's trace with
# non-empty child spans (raster/features/inference under the root).
./scripts/trace_smoke.sh

echo "== reload smoke =="
# End to end: boot hsdserve with a watched model path, hot-reload a
# freshly trained model via /admin/reload and via the watcher, and
# assert the generation gauge and reload counters move while a corrupt
# model is refused.
./scripts/reload_smoke.sh

echo "== quality monitor determinism =="
# The sketch/confusion snapshots must be byte-identical for the same
# event multiset under any worker count, and the OnCollect contract
# must hold while hooks register mid-scrape; both only mean anything
# under the race detector.
go test -run 'TestSnapshotDeterministic|TestOnCollectConcurrent' -race ./internal/qualitymon/ ./internal/telemetry/

echo "== data engine chaos =="
# The active-learning engine is kill-resumed at injected fault points
# across every stage boundary (post-select, mid-label, post-train,
# pre-ship); each resume must replay the WAL to the same state and the
# finally-shipped model must be byte-identical to the uninterrupted
# cycle. -race because labeling fans out across workers over one WAL.
go test -run 'TestChaosLearn' -race ./internal/datengine/

echo "== learn smoke =="
# End to end: hsdlearn mines the base model's uncertainty band, runs a
# full select/label/retrain/ship cycle, is SIGKILLed mid-label, and is
# rerun with -resume; the resumed cycle must reuse >=1 durable label
# and ship a model byte-identical to the uninterrupted run's.
./scripts/learn_smoke.sh

echo "== quality smoke =="
# End to end: hsdtrain writes a score-distribution baseline sidecar,
# hot reload installs it, an injected covariate shift pages
# hotspot_quality_alert_state within the fast window, and rollback
# clears the alert through the ClearHold hysteresis.
./scripts/quality_smoke.sh

echo "== benchmark smoke =="
# The repo benchmark (BENCHMARK.json) at its shortest setting: each of
# the four workloads runs once for 2 s, untraced, and the command exits
# non-zero on any failed operation or broken correctness check.
go run ./bench --quick

echo "ci: all checks passed"
