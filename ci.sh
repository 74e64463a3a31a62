#!/usr/bin/env sh
# ci.sh — the repo's verification gate. Mirrors what a reviewer runs:
#
#   gofmt, vet (the assembly kernel's declarations included), build, a
#   cross-build of the portable path, unit + property tests under the
#   race detector and again on the portable matmul kernel, the chaos,
#   kill-resume and training-guard suites, the metamorphic relations
#   across subsystems (internal/relations), the ship gate's verdict tests
#   and the SLO burn boundary (each name they select must still match a
#   test), the end-to-end smoke scripts (hot reload among
#   them, through its one trigger: an empty POST /admin/reload of the
#   file hsdserve was started with), a check that no
#   binary's flag set, no facade name and no /metrics series moved, that
#   every facade name has an outside caller, that nothing is bound
#   after construction, that no circuit breaker is built outside
#   serving and that no optional Ctx interface is back beside the
#   context-taking Score, a run of every example, a parse of the A/B
#   pair script, a smoke pass over the fuzz seed corpora, 7 s of real
#   fuzzing each on all ten fuzz targets (70 s in all), one pass of the
#   window key, conv, ragged-edge, matmul kernel, shallow fit, CNN fit,
#   scan miss, journaled scan and serve score cache micro-benchmarks
#   (the journaled scan's allocations held to a committed bound and its
#   journal commits to one a commitAge), a scan of repeated geometry at
#   2 workers held to 0.85 of its time at 1, and a quick pass of the
#   repo benchmark's four workloads. The matmul kernel tier the run used is
#   logged near the top.
#
# Usage: ./ci.sh [-short]
#   -short  pass -short to go test (skips the slower property tests)

set -eu

short=""
if [ "${1:-}" = "-short" ]; then
	short="-short"
fi

# run_named PATTERN PKG... runs the tests PATTERN selects in PKG...
# under the race detector. It first checks that each |-separated name in
# PATTERN matches at least one test that go test -list finds there, so
# a test renamed or deleted out from under a step fails the step
# instead of silently dropping out of it.
run_named() {
	pattern=$1
	shift
	pkgs="$*"
	listed=$(go test -race -list "$pattern" "$@")
	oldifs=$IFS
	IFS='|'
	for name in $pattern; do
		if ! printf '%s\n' "$listed" | grep -E '^(Test|Benchmark|Fuzz|Example)' | grep -Eq -- "$name"; then
			IFS=$oldifs
			echo "ci: -run '$pattern' in $pkgs: '$name' matches no test" >&2
			exit 1
		fi
	done
	IFS=$oldifs
	go test -run "$pattern" -race "$@"
}

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

echo "== matmul kernel tier =="
# The tier every product below runs on (AVX-512, AVX2 or portable, read
# once from the CPU), logged so that this log shows which kernel the
# goldens were held to; the test also fails if the selection is not the
# widest tier the CPU has, or names AVX-512 without AVX2.
go test -v -run='^TestKernelTier$' ./internal/tensor/

echo "== go test -race =="
go test -race $short ./...

echo "== portable kernel =="
# -tags purego compiles the assembly out (its build constraint is
# amd64 && !purego), so the kernel property tests, the conv (scoring and
# training) and block-DCT equivalences and the byte goldens
# (trainstep_golden.json, the misspath golden, the oracle's
# aerial_golden.json and the small suite's digest) are proven on the Go kernel too on every run: a model trained,
# a window scored or a clip labelled on a machine without AVX2 gives the
# same bytes. So are the feature tiles a scan shard shares: tiles placed
# where they lie in a window have DCT.Extract's bits (internal/features)
# and the farm's findings are core.ScanCtx's (internal/scanfarm). And so
# are the first-layer sums a miss copies from its left neighbour: they
# equal the whole window's (TestSharedColumnConv1Bits, internal/nn), and
# a miss without them computes its own
# (TestFarmConv1FallbackMatchesCoreScan). And so are the metamorphic
# relations (internal/relations), which score through all of it.
go test -tags purego $short ./internal/tensor/ ./internal/nn/ ./internal/core/ ./internal/fft/ ./internal/features/ ./internal/lithosim/ ./internal/iccad/ ./internal/scanfarm/ ./internal/relations/

echo "== chaos smoke =="
# The chaos tests inject faults (latency, errors, panics) into the
# primary detector, asserting the serving cascade degrades instead of
# failing; -race because degradation is concurrent. (The scan's faults
# are the farm's, in the scan farm chaos step below.)
# The cascade parity tests ride along: /batch is a second route to the
# /score handler, so the same fault must give the same status, verdict
# provenance, counters and trace flags through either. So do the
# shared-instance tests: every caller scores on the one fitted detector
# with no clone and no lock, so the zoo, the CNN behind concurrent POST
# /score and the un-cloned scan detector must each answer their serial
# bits from many goroutines under the detector. The score cache's chaos
# tests (TestChaosCache*) hold a hit to running nothing: no serve.primary
# fault, no breaker probe, no probation outcome.
run_named 'Chaos|TestCascade|TestSharedInstanceConcurrentScore|TestSharedDetectorConcurrentScore|TestConcurrentScoreSharedCNN' . ./internal/serve/ ./internal/core/

echo "== training guard =="
# A fit is not resumed, it is re-run: the TestTrainStep tests hold the
# training step to the bytes the serial loop trained (a golden written
# at the commit before it), under 1, 2, 3 and 8 kernel workers, with
# fits running side by side on the one pool and a refit starting fresh,
# and -race watches the sample-sharded steps; TestConvChain holds a chain
# of three conv-ReLU-pool runs, at and off layer 0, to its layers one by
# one. A non-finite loss or gradient halts the fit before the poisoned
# step is applied (TestNonFinite).
run_named 'TestNonFinite|TestTrainStep|TestConvChain' ./internal/nn/

echo "== scan farm chaos =="
# The shard coordinator is hammered with injected faults (errors,
# panics, latency) and repeated kill-resume cycles over one journal;
# findings must stay byte-identical to an uninterrupted serial scan
# and the shared clip cache must hold under -race. A panicking
# detector and a window over layout.MaxClipShapes each cost only
# their shard. A real run's journal, cut at every frame boundary (inside
# a commit group too) and one byte past it, resumes to the uninterrupted
# Result and leaves every shard journaled once.
# The clip cache's two levels (a table in each worker in front of the
# shared LRU) hold under the detector at 1, 2 and 8 workers with a
# cache that evicts: the serial uncached run's findings, every window
# that reaches the cache counted once, and the series moved by exactly
# Result.Cache.
run_named 'TestChaosFarm|TestResumeFromEveryFrameBoundary|TestFarmCacheSeriesMatchResult' ./internal/scanfarm/

echo "== metamorphic relations =="
# The scan farm answers a window from a key that ignores translation and
# shape order, so its findings must ignore them too. The zoo's CNN-biased
# (tiles and shared conv1 sums) and AdaBoost (clip by clip), fitted on
# the small suite, scan a generated chip and a repeated-cell chip: moved
# by +k and -k core edges (into negative coordinates, journaled and
# resumed), at 1, 2 and 4 rows a shard, with the cache off and on, with
# the shapes inserted shuffled, and after GLT -> GDSII -> GLT, the
# findings move as the chip does and keep their score bits; a window
# posted to serve gets the farm's score on the miss and on the hit; a
# rectangle split in two leaves the features and the CNN score, not
# the fingerprint. The one extractor pitch is pinned to keep every
# coverage sum exact. -race because the scans run two workers.
run_named 'TestTranslationMovesFindings|TestShardRowsAndCacheKeepFindings|TestShuffledInsertionKeepsFindings|TestGDSIIRoundTripKeepsFindings|TestServeAgreesWithFarm|TestSplitRectangleKeepsFeatures|TestPitchKeepsCoverageExact' ./internal/relations/ ./internal/features/

echo "== flags smoke =="
# The five detector binaries' and gltconv's flag names are a committed
# list: a flag cannot appear, vanish or be renamed without the diff
# showing it.
./scripts/flags_smoke.sh

echo "== abpair syntax =="
# Its pairs take minutes a workload, so the gate only parses it.
sh -n scripts/abpair.sh

echo "== gltconv smoke =="
# GLT -> GDS -> GLT gives the bytes GLT -> GLT gives, and an -out whose
# extension is refused leaves the file it names as it was.
./scripts/gltconv_smoke.sh

echo "== api smoke =="
# Package hsd's exported names are a committed list too: the facade
# cannot grow or shrink without the diff showing it.
./scripts/api_smoke.sh

echo "== examples =="
# Every example is a facade caller that runs end to end: each binary
# the build writes is run, and a non-zero exit fails the gate (about
# 20 s in all on 2 vCPUs). Compiling them is not enough to show that a
# facade change kept them working, and looping over what was built, not
# over a list, means an added or renamed example cannot be skipped.
exdir=$(mktemp -d)
trap 'rm -rf "$exdir"' EXIT INT TERM
go build -o "$exdir/" ./examples/...
for bin in "$exdir"/*; do
	echo "-- examples/${bin##*/}"
	"$bin" >/dev/null
done

echo "== metrics smoke =="
# So is what GET /metrics exposes: every HELP and TYPE line and every
# series name with its label keys, from a shallow (SVM, with a
# fallback, the quality monitor and the learn WAL) and a CNN hsdserve.
./scripts/metrics_smoke.sh

echo "== train smoke =="
# hsdtrain -save on the CNN-biased row writes the network it always
# wrote: its SHA-256 is the committed one.
./scripts/train_smoke.sh

echo "== one observer idiom =="
# An optional observer (metrics registry, tracer, hook) is handed over
# in the component's config and may be nil; nothing is bound to a value
# after it is constructed (DESIGN §9).
if grep -rnE 'func \(.*\) Bind[A-Z]' --include='*.go' . | grep -v _test.go; then
	echo "ci: a Bind* method is back; pass the observer in the config instead" >&2
	exit 1
fi

echo "== breakers only where calls are concurrent =="
# A scan worker runs one shard at a time, so a breaker over its scans
# saw only that worker's failures, and its one effect was a 5 s
# cool-down stall per trip (ROADMAP Decided, DESIGN §14). Serving, where
# the concurrent requests a model generation serves share its breaker,
# is the only caller left.
if grep -rn 'resilience\.NewBreaker' --include='*.go' . | grep -v '_test\.go:' |
	grep -v -e '^\./internal/serve/' -e '^\./internal/resilience/'; then
	echo "ci: resilience.NewBreaker is back outside internal/serve; the scan farm's per-worker breaker was deleted because a one-caller breaker only stalls (ROADMAP Decided); a failing shard is quarantined instead" >&2
	exit 1
fi

echo "== retry only where a second attempt can succeed =="
# A retry loop stays only where a program can make an attempt fail in a
# way that a second attempt on the same input escapes (ROADMAP Decided).
# lithosim.Verify's can: each oracle call runs under a deadline that
# load can blow on one call and not the next. A shard scan's cannot: a
# detector is a pure function of its clip, and a refused window a
# function of the chip, so the farm scans each shard once.
if grep -rn 'resilience\.Retry(' --include='*.go' . | grep -v '_test\.go:' |
	grep -v -e '^\./internal/lithosim/' -e '^\./internal/resilience/'; then
	echo "ci: resilience.Retry is called outside internal/lithosim; retry only where a second attempt on the same input can succeed (ROADMAP Decided)" >&2
	exit 1
fi

echo "== one score method =="
# Detector.Score and Extractor.ExtractCtx take the context, so a
# detector or an extractor has one body, traced or not, and a wrapper
# that embeds one keeps its stage spans. An optional Ctx interface
# beside them, asserted with a fallback to a plain method, is what lost
# a wrapper those spans (DESIGN §12). core.CtxFitter stays: the
# benchmark fits through the plain Fit.
if grep -rnE 'type Ctx[A-Za-z0-9_]* interface|\.\(([A-Za-z0-9_]+\.)?Ctx[A-Za-z0-9_]*\)|case .*\bCtx[A-Za-z0-9_]*' \
	--include='*.go' . | grep -v -e '_test\.go:' -e '^\./bench/' | grep -v '\bCtxFitter\b'; then
	echo "ci: an optional Ctx interface or an assertion to one is back outside bench/; give the method a context instead (core.CtxFitter is the one kept)" >&2
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
# model loader, frame reader or payload decoder (FuzzDecode,
# seeded with every golden file's payloads), a shard record encoder
# that writes other bytes than the codec, or a matmul kernel that
# disagrees with the portable one on a seed shape.
go test -run=Fuzz ./internal/layout/ ./internal/gdsii/ ./internal/nn/ ./internal/framelog/ ./internal/scanfarm/ ./internal/tensor/

echo "== frame reader and payload decoder fuzz =="
# A bounded budget of real fuzzing, 7 s on each of the ten targets,
# first on the one frame reader and the one payload decoder every
# durable file (model, journal, WAL, suite) is
# read through: each must fail with a documented error or round-trip,
# and a payload the decoder accepts must re-encode to its own bytes.
# Then on the one hand-written encoder beside the codec, the scan
# journal's: for any shard record (negative and huge coordinates, NaN
# and signed-zero scores, a quarantined record's error) it must write
# the codec's bytes, and they must decode back to the record.
go test -run='^$' -fuzz='^FuzzReadFrame$' -fuzztime=7s ./internal/framelog/
go test -run='^$' -fuzz='^FuzzDecode$' -fuzztime=7s ./internal/framelog/
go test -run='^$' -fuzz='^FuzzShardRecordPayload$' -fuzztime=7s ./internal/scanfarm/

echo "== model loader fuzz =="
# The loader behind them: a network payload must load or fail with an
# error, never panic or allocate what its geometry declares. The target
# frames its input itself and is seeded with real payloads (the golden
# file's among them, and the hostile layers), so mutations reach the
# checks behind the CRC instead of stopping at it.
go test -run='^$' -fuzz='^FuzzLoadNetwork$' -fuzztime=7s ./internal/nn/

echo "== layout fuzz =="
# The two layout readers (every POST /score body is GLT, and a GDSII
# stream is what a scan reads a chip from), and what a scan does with a
# layout once read: ClipAt must return the clips a brute-force window
# filter returns, FingerprintAt must key a window straight from the
# index exactly as ClipAt's clip hashes (the key a scan's cache hit is
# answered by), and a clip's fingerprint must survive any translation
# and never collide across different canonical geometry.
go test -run='^$' -fuzz='^FuzzParseGLT$' -fuzztime=7s ./internal/layout/
go test -run='^$' -fuzz='^FuzzGDSIIRead$' -fuzztime=7s ./internal/gdsii/
go test -run='^$' -fuzz='^FuzzClipAtMatchesBruteForce$' -fuzztime=7s ./internal/layout/
go test -run='^$' -fuzz='^FuzzClipFingerprint$' -fuzztime=7s ./internal/layout/

echo "== window key benchmarks =="
# One iteration each of keying a repeated-cell window by building its
# clip (a cache miss) and straight from the index (a cache hit), and of
# a layout built for one clip (a served request, a generated suite
# clip), which pays for building the index it queries once: keeps the
# micro-benchmarks behind the scan_repeat row and the one-shot guard
# compiling and running. Time them with -benchtime 1s.
go test -run='^$' -bench='Fingerprint|OneShot' -benchtime=1x ./internal/layout/

echo "== conv, ragged-edge and kernel benchmarks =="
# One iteration each of the zoo's two conv stages as they ship, as the
# im2col gather and (the first stage) as a scan miss shares it with its
# left neighbour, of one conv1 output row at the widths a split product
# would have, and of the selected kernel tier and the portable loop on
# every shape the system multiplies: keeps the numbers behind
# scan_unique's miss path and DESIGN §11.1 compiling and running. Time
# them with -benchtime 1s.
go test -run='^$' -bench=ConvKernel -benchtime=1x ./internal/nn/
go test -run='^$' -bench=MatMulRaggedEdge -benchtime=1x ./internal/tensor/
go test -run='^$' -bench=MatMulKernels -benchtime=1x ./internal/tensor/

echo "== shallow fit benchmarks =="
# One fit of the zoo's AdaBoost on the small suite's 100-clip train split
# (the serve bench's set-up and hsdserve -fallback AdaBoost pay it), and
# one CCAS extraction off its pixel-to-bin table: keeps the numbers
# behind serve_closed's setup_s compiling and running. Time them with
# -benchtime 1s.
go test -run='^$' -bench=FitZooAdaBoost -benchtime=1x .
go test -run='^$' -bench=CCAS8x12 -benchtime=1x ./internal/features/

echo "== CNN fit benchmark =="
# One fit of the zoo CNN, the fit behind every bench workload's setup_s
# and every learn_cycle; the -cpu 1,2 pair prints its two-core speed-up
# in every log. Not gated.
go test -run='^$' -bench=FitZooCNN -benchtime=1x -cpu 1,2 ./internal/nn/
# The pool's hand-off in the shape of a step's gap between forks: median
# and p90 µs from Run to the second shard's start after 300 µs of serial
# work, over 200 rounds. Not gated.
go test -run='^$' -bench=PoolHandoff -benchtime=200x ./internal/tensor/

echo "== scan benchmarks =="
# One scan each by the fitted CNN: of a chip with no repeated geometry,
# every window a miss on the one tiled path (shared tiles and conv1
# columns), in ScanFarmCNNMiss; and of a repeated-cell chip with the
# cache on and a fresh fsynced journal, almost every window a hit and
# the finished shards committed in groups, in ScanFarmJournaled. Keeps
# the profile benchmarks behind scan_unique and scan_repeat compiling
# and running, and -benchmem prints their allocations a scan (the
# findings merge and the journal's frames among them) in every log.
# Time them with -benchtime 1s.
#
# The journaled scan's allocations are gated: they are a count, not a
# time, so they do not depend on the machine, and they guard the frame
# buffer and record lists the journal reuses. The bound was 560 when
# 438-491 allocs/op were measured over 40 runs at -cpu 1, 2 and 4: the
# committer's record lists and a frame buffer that held a whole group
# grew with the largest group a run happened to form. They no longer
# grow with the groups (the lists hold every shard of the plan, and the
# buffer holds one frame at a time, so it grows to the largest frame),
# and 68 runs at -cpu 1, 2 and 4 read 392-479; six runs each at -cpu 1,
# 2 and 4 now read 426-431, 448-455 and 453-478. What still moves is the
# miss path's sync.Pool scratch, which a GC empties. 530 is 11 % above
# the highest, and one more allocation per shard (128 shards a scan)
# crosses it. A fresh frame buffer for each record reads ~1 860.
journaled_allocs_max=530
scanbench=$(go test -run='^$' -bench='ScanFarmCNNMiss|ScanFarmJournaled' -benchtime=1x -benchmem ./internal/scanfarm/)
printf '%s\n' "$scanbench"
allocs=$(printf '%s\n' "$scanbench" | awk '/^BenchmarkScanFarmJournaled/ { for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i - 1) }')
if [ -z "$allocs" ] || [ "$allocs" -gt "$journaled_allocs_max" ]; then
	echo "ci: BenchmarkScanFarmJournaled allocs/op '$allocs' is missing or over the bound of $journaled_allocs_max" >&2
	exit 1
fi
echo "ci: BenchmarkScanFarmJournaled $allocs allocs/op (bound $journaled_allocs_max)"

# Its commits are gated as well: commits/op is the groups a scan
# appended to its journal (scan_journal_commits_total), each one fsync.
# The committer tries the run's first group at once, then commits when
# the oldest pending record is commitAge old, and once more when the
# run ends, so a scan of ns/op makes at most 2 + ns/op / commitAge. A
# committer that appends whatever is pending each time it runs made
# about 30 a scan in 14 ms, and fails this.
commit_age_ms=$(sed -n 's/^const commitAge = \([0-9][0-9]*\) \* time\.Millisecond$/\1/p' internal/scanfarm/coordinator.go)
if [ -z "$commit_age_ms" ]; then
	echo "ci: no 'const commitAge = N * time.Millisecond' in internal/scanfarm/coordinator.go" >&2
	exit 1
fi
if ! printf '%s\n' "$scanbench" | awk -v age="$commit_age_ms" '
	/^BenchmarkScanFarmJournaled/ {
		for (i = 2; i <= NF; i++) {
			if ($i == "ns/op") ns = $(i - 1)
			if ($i == "commits/op") commits = $(i - 1)
		}
	}
	END {
		if (ns == "" || commits == "") { print "ci: BenchmarkScanFarmJournaled reports no ns/op or commits/op" > "/dev/stderr"; exit 1 }
		max = 2 + ns / (age * 1e6)
		if (commits + 0 > max) { printf "ci: BenchmarkScanFarmJournaled made %s commits in a %.1f ms scan, over 2 + ns/op / %d ms = %.2f\n", commits, ns / 1e6, age, max > "/dev/stderr"; exit 1 }
		printf "ci: BenchmarkScanFarmJournaled %s commits in a %.1f ms scan (bound %.2f)\n", commits, ns / 1e6, max
	}'; then
	exit 1
fi

echo "== hit path scaling =="
# A scan of repeated geometry at 2 workers must take at most 0.85 of its
# time at 1 (BenchmarkScanFarmHits: the fitted CNN over a repeated-cell
# chip, the cache on, no journal). A ratio of two runs in one process
# does not depend on the machine's speed. Three processes each run 1
# worker then 2, so the two alternate, and the medians of the three
# ns/op are compared. A hit that writes memory the other worker reads
# (one mutex, a shared LRU list) held the ratio at 1.07-1.20 before
# each worker answered repeats from its own table; with the table it
# reads 0.66-0.72. It needs two CPUs to mean anything.
if [ "$(nproc)" -lt 2 ]; then
	echo "ci: skipping the hit path scaling gate: nproc is $(nproc), and it compares 2 workers with 1"
else
	go test -c -o "$exdir/scanfarm.test" ./internal/scanfarm/
	hits=""
	for i in 1 2 3; do
		hits="$hits
$("$exdir/scanfarm.test" -test.run '^$' -test.bench '^BenchmarkScanFarmHits$' -test.benchtime 20x)"
	done
	printf '%s\n' "$hits" | grep '^BenchmarkScanFarmHits'
	median_ns() {
		printf '%s\n' "$hits" | awk -v n="$1" '$1 ~ ("/workers=" n "(-[0-9]+)?$") { print $3 }' | sort -n | awk '{ v[NR] = $1 } END { print v[int((NR + 1) / 2)] }'
	}
	w1=$(median_ns 1)
	w2=$(median_ns 2)
	if [ -z "$w1" ] || [ -z "$w2" ] || awk -v a="$w2" -v b="$w1" 'BEGIN { exit !(a > 0.85 * b) }'; then
		echo "ci: BenchmarkScanFarmHits at 2 workers took ${w2:-?} ns/op against ${w1:-?} at 1 (medians of 3), over the bound of 0.85" >&2
		exit 1
	fi
	echo "ci: BenchmarkScanFarmHits w2/w1 $(awk -v a="$w2" -v b="$w1" 'BEGIN { printf "%.2f", a / b }') (bound 0.85)"
fi

echo "== serve score cache benchmark =="
# One POST /score through the handler on a CNN of the zoo's shape, as a
# score-cache hit and as a miss on a clip never seen before (the miss
# pays the lookup on top of raster, DCT and network): keeps the numbers
# behind serve_closed compiling and running. Time it with -benchtime 1s.
go test -run='^$' -bench=ServeScoreCache -benchtime=1x ./internal/serve/

echo "== matmul kernel fuzz =="
# The two faces of the hand-written matmul kernel. The plain product is
# under every dense layer and every A·Bᵀ. The addressed one is under the
# convolutions forward and backward, the block DCT and the oracle's
# blur, which index its right operand through a row table they built
# themselves, stride its left operand and carry sums on from one call to
# the next: every kernel tier the CPU has, and the portable loop, must
# agree with the scalar loop on whatever shape, strides, offsets and
# starting sums the engine finds.
go test -run='^$' -fuzz='^FuzzMatMulKernel$' -fuzztime=7s ./internal/tensor/
go test -run='^$' -fuzz='^FuzzAddressedKernel$' -fuzztime=7s ./internal/tensor/

echo "== trace store race =="
# The trace store and tail sampler are hit from every request
# goroutine; their concurrency tests must hold under the detector.
run_named 'TestConcurrentAppendRead|TestChaosTailSampling' ./internal/trace/

echo "== trace smoke =="
# End to end: boot hsdserve with tracing, -trace-capacity 8 and a debug
# listener, score one clip, and assert /debug/traces returns that
# request's trace with non-empty child spans (raster/features/inference
# under the root), and that after more requests than the capacity it
# lists exactly 8 traces, the latest.
./scripts/trace_smoke.sh

echo "== reload smoke =="
# End to end: boot hsdserve with -model M, the one file it reloads;
# a reload request that names a path must get 400 and load nothing;
# hsdtrain -save M and an empty POST /admin/reload must swap in
# generation 2 and move the gauge and reload counters; a corrupt file
# at M must be refused while the live generation keeps serving.
./scripts/reload_smoke.sh

echo "== quality monitor determinism =="
# The quality snapshot (spot-check confusion, SLO counts, alert) must be
# byte-identical for the same event multiset under any worker count, and the OnCollect contract
# must hold while hooks register mid-scrape; both only mean anything
# under the race detector.
run_named 'TestSnapshotDeterministic|TestOnCollectConcurrent' ./internal/qualitymon/ ./internal/telemetry/

echo "== ship gate verdicts and SLO burn boundary =="
# The registry's gate, one verdict a test or table row through Reload:
# finite scores, no panic and a golden recall of at least half the live
# model's pass, and nothing finer is compared. A slow window failing
# exactly its error budget burns 1 and warns. Named so a rename or
# deletion fails here.
run_named 'TestGateVerdicts|TestGateAdmitsSmallScoreDrift|TestGateRejects|TestGateLogsBaselineFailure|TestGateNilLogf|TestGateEmptyGoldenSanityOnly|TestEmptyGoldenGatesOnSanityOnly|TestBurnBoundaryWarns' ./internal/registry/ ./internal/qualitymon/

echo "== data engine chaos =="
# The active-learning engine is kill-resumed at injected fault points
# across every stage boundary (post-select, mid-label, post-train,
# pre-ship); each resume must replay the WAL to the same state and the
# finally-shipped model must be byte-identical to the uninterrupted
# cycle, and a cycle cancelled mid-label must journal nothing for the
# member it interrupted. Faults armed inside the litho-sim oracle must
# be absorbed by lithosim.Verify's retries or quarantined, in the data
# engine and in the quality monitor's spot-checker. -race because
# mining taps ingest from scoring goroutines and spot checks run on a
# background worker, while labeling itself is one serial loop over the
# WAL. A real run's WAL, cut at every frame boundary and one byte past
# it, opens to the replay of the records before the cut and runs on to
# the uninterrupted run's models and counters.
run_named 'TestChaos|TestOracleFault|TestWALResumeFromEveryFrameBoundary' ./internal/datengine/ ./internal/qualitymon/

echo "== learn smoke =="
# End to end: hsdlearn mines the base model's uncertainty band, runs a
# full select/label/retrain/ship cycle, is SIGKILLed mid-label, and is
# rerun with -resume; the resumed cycle must reuse >=1 durable label
# and ship a model byte-identical to the uninterrupted run's.
./scripts/learn_smoke.sh

echo "== quality smoke =="
# End to end: an out-of-range -slo-target is refused before the suite
# is read; with the oracle spot-checking every clip at -slo-target 0.99,
# the first test split's clips and a clip the oracle contradicts raise
# the mismatch counter but never page (spot checks are not SLO events);
# primary failures past -deadline page hotspot_quality_alert_state
# within the fast window; rollback clears the alert through the
# clear-hold hysteresis.
./scripts/quality_smoke.sh

echo "== benchmark smoke =="
# The repo benchmark (BENCHMARK.json) at its shortest setting: each of
# the four workloads runs once for 2 s, untraced, and the command exits
# non-zero on any failed operation or broken correctness check.
go run ./bench --quick

echo "ci: all checks passed"
