// Chaos gates for the scan farm, wired into ci.sh:
//
//   - TestChaosFarmKillResume: the scan is "killed" (hard-cancelled at
//     injected fault points, journal left as-is on disk, coordinator
//     state discarded) and resumed from the journal repeatedly; the
//     stitched findings must be byte-identical to an uninterrupted run.
//   - TestChaosFarmFaultMatrix: injected worker faults — errors,
//     panics, latency — at the farm's fault sites quarantine exactly
//     the shards they fail, never crash the run, lose a finding, or
//     duplicate one.
//   - TestChaosFarmAdjacentPoisonShards: poison shards in a row on one
//     worker cost their own scans and nothing else — no backoff or
//     cool-down stalls the worker or the healthy shard after them.
//   - TestChaosFarmPoisonQuarantineAnyWorkers and
//     TestChaosFarmOverBoundWindowQuarantined: a panicking detector and a
//     window over layout.MaxClipShapes each cost their shard, named in
//     its quarantine, and nothing else.
//
// These are the scan-path twins of the nn kill-resume training gates.

package scanfarm

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/faultinject"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
)

// TestChaosFarmKillResume runs over the density double on the synthetic
// chip and over the fitted CNN on a generated one, whose misses go
// through the worker's tile memo. Every detector is handed to Run bare, as hsdscan
// hands it over: the kill comes from the context the window loop polls.
func TestChaosFarmKillResume(t *testing.T) {
	cases := []struct {
		name string
		chip *layout.Layout
		det  core.Detector
	}{
		{"density", testChip(t, 10), densityDetector{thr: 0.5}},
		{"cnn", cnnChip(t, 6), fittedCNN(t, false)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runKillResume(t, tc.chip, tc.det) })
	}
}

func runKillResume(t *testing.T, chip *layout.Layout, det core.Detector) {
	base := Config{SkipEmpty: true, Workers: 3, ShardRows: 1}
	want := referenceFindings(t, chip, det, base)
	meta := base.Meta(chip, det.Name())
	path := filepath.Join(t.TempDir(), "scan.journal")

	// Kill after 18 % of the windows were polled (on the 400-window chip:
	// three to four 20-window shards done, three in flight), then 30 %
	// into the rest, then run to completion: three generations over one
	// journal, like a flaky batch box.
	j, err := CreateJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	windows := int64(NewPlan(chip.Bounds(), base).Windows())
	kills := []int64{windows * 18 / 100, windows * 30 / 100}
	completedSoFar := 0
	for gen := 0; gen <= len(kills); gen++ {
		cfg := base
		var completed map[int]ShardRecord
		if gen > 0 {
			j, completed, err = ResumeJournal(path, meta)
			if err != nil {
				t.Fatalf("generation %d resume: %v", gen, err)
			}
			if len(completed) < completedSoFar {
				t.Fatalf("generation %d: journal lost records: %d < %d",
					gen, len(completed), completedSoFar)
			}
			cfg.Completed = completed
		}
		cfg.Journal = j
		ctx := context.Background()
		if gen < len(kills) {
			ctx = cancelAfterPolls(ctx, kills[gen])
		}
		res, err := Run(ctx, chip, det, cfg)
		j.Close()
		if err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		if gen < len(kills) && (!res.Interrupted || res.Completed == res.Shards) {
			t.Fatalf("generation %d was not cut: interrupted=%v, %d of %d shards", gen, res.Interrupted, res.Completed, res.Shards)
		}
		completedSoFar = res.Completed
		if gen == len(kills) {
			if res.Interrupted {
				t.Fatal("final generation interrupted")
			}
			if !reflect.DeepEqual(res.Findings, want) {
				t.Fatalf("kill-resume findings diverge from uninterrupted run:\ngot  %v\nwant %v",
					res.Findings, want)
			}
		}
	}
}

func TestChaosFarmFaultMatrix(t *testing.T) {
	defer faultinject.Reset()
	// The fault sites are the farm's own, so one double is enough.
	runFaultMatrix(t, testChip(t, 8), densityDetector{thr: 0.5})
	t.Run("cnn", func(t *testing.T) { runFaultMatrix(t, cnnChip(t, 6), fittedCNN(t, false)) })
}

func runFaultMatrix(t *testing.T, chip *layout.Layout, det core.Detector) {
	base := Config{SkipEmpty: true, ShardRows: 1}
	want := referenceFindings(t, chip, det, base)
	plan := NewPlan(chip.Bounds(), base)

	faults := []struct {
		name  string
		site  string
		fault faultinject.Fault
		msg   string // in the quarantine of a shard a firing fails; "" if none fails
	}{
		{"errors", WindowScoreSite, faultinject.Fault{Err: errTransient, Count: 5}, errTransient.Error()},
		{"panics", WindowScoreSite, faultinject.Fault{Panic: "chaos", Count: 3, Skip: 2}, "detector panic"},
		{"latency", WindowScoreSite, faultinject.Fault{Latency: 2 * time.Millisecond, Count: 40}, ""},
		{"mixed", WindowScoreSite, faultinject.Fault{Latency: time.Millisecond, Err: errTransient, Count: 4, Skip: 5}, errTransient.Error()},
		// The whole scan dies before any window.
		{"attempt-errors", ShardAttemptSite, faultinject.Fault{Err: errTransient, Count: 3}, errTransient.Error()},
	}
	for _, tc := range faults {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 3, 8} {
				t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
					faultinject.Reset()
					faultinject.Set(tc.site, tc.fault)
					cfg := base
					cfg.Workers = workers
					res, err := Run(context.Background(), chip, det, cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkFaulted(t, plan, res, want, tc.site, tc.msg)
				})
			}
		})
	}
}

// TestChaosFarmAdjacentPoisonShards runs three poison shards in a row
// on one worker with the farm's defaults. Each is quarantined; every
// other shard's findings survive; and the run takes well under a
// second. The time bound is what catches a pause after a failed scan: a
// backoff before a rescan, or a breaker over a worker's scans that
// trips on consecutive failures and stalls the next poison shard, and
// the healthy shard after the last one, for its cool-down (DESIGN §14).
func TestChaosFarmAdjacentPoisonShards(t *testing.T) {
	chip := testChip(t, 8)
	for p := 0; p < 3; p++ {
		if err := chip.AddRect(poisonRect(1*1024+50, 1024+50+p*512)); err != nil {
			t.Fatal(err)
		}
	}
	inner := densityDetector{thr: 0.5}
	cfg := Config{SkipEmpty: true, Workers: 1, ShardRows: 1}
	start := time.Now()
	res, err := Run(context.Background(), chip, &poisonDetector{inner: inner}, cfg)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 3 || res.Interrupted || res.Completed != res.Shards {
		t.Fatalf("quarantined %+v, interrupted=%v, %d of %d shards; want the three poison shards",
			res.Quarantined, res.Interrupted, res.Completed, res.Shards)
	}
	plan := NewPlan(chip.Bounds(), cfg)
	want := outsideQuarantine(plan, referenceFindings(t, chip, inner, cfg), res.Quarantined)
	if !reflect.DeepEqual(res.Findings, want) {
		t.Fatalf("findings outside the quarantined shards diverged:\ngot  %v\nwant %v", res.Findings, want)
	}
	if elapsed >= 2*time.Second {
		t.Fatalf("three adjacent poison shards took %v on one worker, want under 2s", elapsed)
	}
	t.Logf("three adjacent poison shards took %v on one worker", elapsed)
}

// TestChaosFarmCNNPoisonWindow holds the tile path to the window-score
// site's contract. A fault armed without limit fires once per miss: not
// per tile, and not at all on a hit. And a window that panics costs its
// shard: the shard is quarantined under that window's coordinates while
// every other shard's findings equal the serial scan's.
func TestChaosFarmCNNPoisonWindow(t *testing.T) {
	defer faultinject.Reset()
	chip, det := cnnChip(t, 6), fittedCNN(t, false)
	cfg := Config{SkipEmpty: true, Workers: 3, ShardRows: 2, CacheSize: 4096}
	want := referenceFindings(t, chip, det, cfg)

	faultinject.Set(WindowScoreSite, faultinject.Fault{Latency: time.Nanosecond})
	res, err := Run(context.Background(), chip, det, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Findings, want) {
		t.Fatal("findings diverged under a latency fault")
	}
	if fired := faultinject.Fired(WindowScoreSite); res.Cache.Misses == 0 || int64(fired) != res.Cache.Misses {
		t.Fatalf("site fired %d times over %d misses (%d hits)", fired, res.Cache.Misses, res.Cache.Hits)
	}

	// One worker, so "the 40th miss" is one window: the sweep reaches it
	// mid-shard, with tiles of its neighbours already in the memo.
	faultinject.Reset()
	cfg.Workers = 1
	faultinject.Set(WindowScoreSite, faultinject.Fault{Panic: "poison", Skip: 40, Count: 1})
	res, err = Run(context.Background(), chip, det, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 1 || res.Interrupted {
		t.Fatalf("quarantined %+v, interrupted=%v; want the one poisoned shard", res.Quarantined, res.Interrupted)
	}
	q := res.Quarantined[0]
	plan := NewPlan(chip.Bounds(), cfg)
	quarantinedWindow(t, plan, q)
	if !strings.Contains(q.Err, "detector panic") || !strings.Contains(q.Err, "poison") {
		t.Fatalf("quarantine %+v does not name the panic", q)
	}
	rest := outsideQuarantine(plan, want, res.Quarantined)
	if len(rest) == len(want) || !reflect.DeepEqual(res.Findings, rest) {
		t.Fatalf("findings outside the quarantined shard diverged:\ngot  %v\nwant %v", res.Findings, rest)
	}
}

// TestChaosFarmConcurrentCache hammers one shared cache from many
// workers while faults quarantine shards — the -race gate for the cache
// and coordinator bookkeeping.
func TestChaosFarmConcurrentCache(t *testing.T) {
	defer faultinject.Reset()
	chip := cellChip(t, 8)
	det := densityDetector{thr: 0.1}
	faultinject.Set(WindowScoreSite, faultinject.Fault{Err: errTransient, Count: 5, Skip: 7})
	cfg := Config{
		SkipEmpty: true,
		Workers:   8,
		ShardRows: 1,
		// Smaller than the chip's distinct canonical-clip count (~16)
		// so the LRU eviction path is exercised under contention.
		CacheSize: 8,
	}
	res, err := Run(context.Background(), chip, det, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkFaulted(t, NewPlan(chip.Bounds(), cfg), res, referenceFindings(t, chip, det, cfg), WindowScoreSite, errTransient.Error())
	if res.Cache.Evictions == 0 {
		t.Fatalf("tiny cache never evicted: %+v", res.Cache)
	}
}

// TestChaosFarmPoisonQuarantineAnyWorkers: a detector panic costs its
// shard, and the quarantine is the same whatever the worker count,
// because a scan meets its shard's windows in one fixed order and
// the first poison window fails it. Every other shard's findings are
// the reference scan's.
func TestChaosFarmPoisonQuarantineAnyWorkers(t *testing.T) {
	chip := testChip(t, 8)
	if err := chip.AddRect(poisonRect(3*1024+50, 5*1024+50)); err != nil {
		t.Fatal(err)
	}
	inner := densityDetector{thr: 0.5}
	var want []Quarantine
	for _, workers := range []int{1, 3, 8} {
		cfg := Config{SkipEmpty: true, Workers: workers, ShardRows: 1}
		res, err := Run(context.Background(), chip, &poisonDetector{inner: inner}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Quarantined) == 0 || res.Interrupted || res.Completed != res.Shards {
			t.Fatalf("workers=%d: quarantined %+v, interrupted=%v, %d of %d shards; want the poison shards",
				workers, res.Quarantined, res.Interrupted, res.Completed, res.Shards)
		}
		plan := NewPlan(chip.Bounds(), cfg)
		for _, q := range res.Quarantined {
			quarantinedWindow(t, plan, q)
			if !strings.Contains(q.Err, "detector panic: poison window") {
				t.Fatalf("workers=%d: quarantine error %q names no panicking window", workers, q.Err)
			}
		}
		rest := outsideQuarantine(plan, referenceFindings(t, chip, inner, cfg), res.Quarantined)
		if !reflect.DeepEqual(res.Findings, rest) {
			t.Fatalf("workers=%d: findings outside the quarantined shards diverged:\ngot  %v\nwant %v", workers, res.Findings, rest)
		}
		if workers == 1 {
			want = res.Quarantined
		} else if !reflect.DeepEqual(res.Quarantined, want) {
			t.Fatalf("workers=%d: quarantine drifted:\ngot  %+v\nwant %+v", workers, res.Quarantined, want)
		}
	}
}

// TestChaosFarmOverBoundWindowQuarantined: a window over
// layout.MaxClipShapes costs its shard, whether the cache keys it
// (FingerprintAt refuses it) or the detector needs its clip (ClipAt
// does). A generated chip gets 1025 small squares inside the core of
// one window whose shard holds every window that overlaps them. Only
// the shards holding an over-bound window are quarantined, each naming
// an over-bound centre, and every other shard's findings are the
// reference scan's on the chip without the squares.
func TestChaosFarmOverBoundWindowQuarantined(t *testing.T) {
	det := fittedCNN(t, false)
	bare, chip := cnnChip(t, 6), cnnChip(t, 6)
	base := Config{SkipEmpty: true, Workers: 3, ShardRows: 3}
	want := referenceFindings(t, bare, det, base)
	plan := NewPlan(chip.Bounds(), base)
	// Row 4's core is overlapped only by windows of rows 3-5: shard 1.
	c := plan.Center(8, 4)
	for k := 0; k <= layout.MaxClipShapes; k++ {
		x, y := c.X-200+k%33*12, c.Y-200+k/33*12
		if err := chip.AddRect(geom.R(x, y, x+4, y+4)); err != nil {
			t.Fatal(err)
		}
	}
	if chip.Bounds() != bare.Bounds() {
		t.Fatal("the squares moved the chip's bounds, and with them the plan")
	}
	// The over-bound windows, counted by Query, which has no bound.
	over, overShards := map[geom.Point]bool{}, map[int]bool{}
	half := plan.ClipNM / 2
	for row := 0; row < plan.Rows; row++ {
		for col := 0; col < plan.Cols; col++ {
			p := plan.Center(col, row)
			if len(chip.Query(geom.R(p.X-half, p.Y-half, p.X+half, p.Y+half))) > layout.MaxClipShapes {
				over[p] = true
				overShards[shardOf(plan, p)] = true
			}
		}
	}
	if !over[c] || len(overShards) != 1 {
		t.Fatalf("fixture: over-bound windows %v in shards %v", over, overShards)
	}
	for _, cacheSize := range []int{0, 4096} {
		cfg := base
		cfg.CacheSize = cacheSize
		res, err := Run(context.Background(), chip, det, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Interrupted || res.Completed != res.Shards || len(res.Quarantined) != len(overShards) {
			t.Fatalf("cache %d: quarantined %+v, interrupted=%v; want shards %v", cacheSize, res.Quarantined, res.Interrupted, overShards)
		}
		for _, q := range res.Quarantined {
			if at := quarantinedWindow(t, plan, q); !overShards[q.ShardID] || !over[at] || !strings.Contains(q.Err, layout.ErrTooManyShapes.Error()) {
				t.Fatalf("cache %d: quarantine %+v does not name an over-bound window of its shard", cacheSize, q)
			}
		}
		rest := outsideQuarantine(plan, want, res.Quarantined)
		if len(rest) == 0 || !reflect.DeepEqual(res.Findings, rest) {
			t.Fatalf("cache %d: findings outside the quarantined shard diverged:\ngot  %v\nwant %v", cacheSize, res.Findings, rest)
		}
	}
}
