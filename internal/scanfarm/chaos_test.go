// Chaos gates for the scan farm, wired into ci.sh:
//
//   - TestChaosFarmKillResume: the scan is "killed" (hard-cancelled at
//     injected fault points, journal left as-is on disk, coordinator
//     state discarded) and resumed from the journal repeatedly; the
//     stitched findings must be byte-identical to an uninterrupted run.
//   - TestChaosFarmFaultMatrix: injected worker faults — errors,
//     panics, latency — at the window-score site produce retries or
//     quarantines, never a crash, a lost finding, or a duplicate.
//
// These are the scan-path twins of the nn kill-resume training gates.

package scanfarm

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/faultinject"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/resilience"
	"github.com/golitho/hsd/internal/router"
)

// fnDetector is a pure-function detector for router cascades in chaos
// tests; like densityDetector it is deterministic and translation-
// invariant, which the journal and clip cache rely on.
type fnDetector struct {
	name string
	thr  float64
	fn   func(layout.Clip) float64
}

func (d fnDetector) Name() string                         { return d.name }
func (d fnDetector) Fit([]core.LabeledClip) error         { return nil }
func (d fnDetector) Threshold() float64                   { return d.thr }
func (d fnDetector) Score(c layout.Clip) (float64, error) { return d.fn(c), nil }

// chaosRouter builds a fitted two-stage router whose bands split the
// test chip's windows between the stages: dense windows answer at the
// cheap stage, sparse ones escalate — so kill-resume covers the routed
// scan path end to end.
func chaosRouter(t testing.TB) *router.Router {
	t.Helper()
	r := router.New("router", []router.Stage{
		{Name: "cheap", Detector: fnDetector{name: "cheap", thr: 0.5, fn: func(c layout.Clip) float64 {
			d := c.Density()
			return d + 0.1*math.Sin(53*d)
		}}},
		{Name: "deep", Detector: fnDetector{name: "deep", thr: 0.5, fn: func(c layout.Clip) float64 {
			return c.Density()
		}}},
	}, router.Config{})
	err := r.SetCalibrations([]router.Calibration{
		{Weights: []float64{4}, Mean: []float64{0.5}, InvStd: []float64{1},
			Band: router.Band{Lo: 0.05, Hi: 0.7}},
		{Weights: []float64{2, 2}, Mean: []float64{0.5, 0.5}, InvStd: []float64{1, 1},
			Band: router.AlwaysEscalate},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestChaosFarmKillResume runs over the doubles on the synthetic chip and
// over the fitted CNN on a generated one, whose misses go through the
// worker's tile memo. Every detector is handed to Run bare, as hsdscan
// hands it over: the kill comes from the context the window loop polls.
func TestChaosFarmKillResume(t *testing.T) {
	cases := []struct {
		name string
		chip *layout.Layout
		det  core.Detector
	}{
		{"density", testChip(t, 10), densityDetector{thr: 0.5}},
		{"router", testChip(t, 10), chaosRouter(t)},
		{"cnn", cnnChip(t, 6), fittedCNN(t, false)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runKillResume(t, tc.chip, tc.det) })
	}
}

func runKillResume(t *testing.T, chip *layout.Layout, det core.Detector) {
	base := Config{SkipEmpty: true, Workers: 3, ShardRows: 1, Retry: fastRetry()}
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
	base := Config{
		SkipEmpty:   true,
		Workers:     3,
		ShardRows:   1,
		MaxAttempts: 25,
		Retry:       fastRetry(),
		Breaker:     resilience.BreakerConfig{FailureThreshold: 1000},
	}
	want := referenceFindings(t, chip, det, base)

	faults := []struct {
		name  string
		fault faultinject.Fault
	}{
		{"errors", faultinject.Fault{Err: errTransient, Count: 11}},
		{"panics", faultinject.Fault{Panic: "chaos", Count: 7, Skip: 2}},
		{"latency", faultinject.Fault{Latency: 2 * time.Millisecond, Count: 40}},
		{"mixed", faultinject.Fault{Latency: time.Millisecond, Err: errTransient, Count: 9, Skip: 5}},
	}
	for _, tc := range faults {
		t.Run(tc.name, func(t *testing.T) {
			faultinject.Reset()
			faultinject.Set(WindowScoreSite, tc.fault)
			res, err := Run(context.Background(), chip, det, base)
			if err != nil {
				t.Fatal(err)
			}
			if res.Interrupted {
				t.Fatal("faulted run interrupted")
			}
			if len(res.Quarantined) != 0 {
				t.Fatalf("transient %s quarantined shards: %+v", tc.name, res.Quarantined)
			}
			if !reflect.DeepEqual(res.Findings, want) {
				t.Fatalf("findings diverged under %s:\ngot  %v\nwant %v", tc.name, res.Findings, want)
			}
		})
	}

	// Shard-attempt faults (the whole attempt dies before any window)
	// are likewise absorbed.
	t.Run("attempt-errors", func(t *testing.T) {
		faultinject.Reset()
		faultinject.Set(ShardAttemptSite, faultinject.Fault{Err: errTransient, Count: 6})
		res, err := Run(context.Background(), chip, det, base)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Quarantined) != 0 || !reflect.DeepEqual(res.Findings, want) {
			t.Fatalf("attempt faults lost findings: quarantined=%d", len(res.Quarantined))
		}
	})
}

// TestChaosFarmCNNPoisonWindow holds the tile path to the window-score
// site's contract. A fault armed without limit fires once per miss: not
// per tile, and not at all on a hit. And a window that panics on every
// attempt costs its shard: the retries answer the windows before it from
// the cache, meet it again as their first miss, and the shard is
// quarantined under that window's coordinates while every other shard's
// findings equal the serial scan's.
func TestChaosFarmCNNPoisonWindow(t *testing.T) {
	defer faultinject.Reset()
	chip, det := cnnChip(t, 6), fittedCNN(t, false)
	cfg := Config{SkipEmpty: true, Workers: 3, ShardRows: 2, CacheSize: 4096, Retry: fastRetry()}
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
	cfg.Workers, cfg.MaxAttempts = 1, 3
	faultinject.Set(WindowScoreSite, faultinject.Fault{Panic: "poison", Skip: 40, Count: cfg.MaxAttempts})
	res, err = Run(context.Background(), chip, det, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 1 || res.Interrupted {
		t.Fatalf("quarantined %+v, interrupted=%v; want the one poisoned shard", res.Quarantined, res.Interrupted)
	}
	q := res.Quarantined[0]
	var shard int
	var at geom.Point
	if _, err := fmt.Sscanf(q.Err[strings.Index(q.Err, "scanfarm: shard"):], "scanfarm: shard %d window at (%d,%d):", &shard, &at.X, &at.Y); err != nil {
		t.Fatalf("quarantine error %q names no window: %v", q.Err, err)
	}
	plan := NewPlan(chip.Bounds(), cfg)
	if shard != q.ShardID || shardOf(plan, at) != q.ShardID || !at.In(q.Bounds) ||
		q.Attempts != cfg.MaxAttempts || !strings.Contains(q.Err, "detector panic") || !strings.Contains(q.Err, "poison") {
		t.Fatalf("quarantine %+v does not name a window of its own shard", q)
	}
	var rest []core.Finding
	for _, f := range want {
		if shardOf(plan, f.Center) != q.ShardID {
			rest = append(rest, f)
		}
	}
	if len(rest) == len(want) || !reflect.DeepEqual(res.Findings, rest) {
		t.Fatalf("findings outside the quarantined shard diverged:\ngot  %v\nwant %v", res.Findings, rest)
	}
}

// TestChaosFarmConcurrentCache hammers one shared cache from many
// workers while faults force retries — the -race gate for the cache and
// coordinator bookkeeping.
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
		CacheSize:   8,
		MaxAttempts: 25,
		Retry:       fastRetry(),
	}
	res, err := Run(context.Background(), chip, det, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.CacheSize = 0
	cfg2.Workers = 1
	faultinject.Reset()
	want, err := Run(context.Background(), chip, det, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Findings, want.Findings) {
		t.Fatal("concurrent cached scan diverged from serial uncached scan")
	}
	if res.Cache.Evictions == 0 {
		t.Fatalf("tiny cache never evicted: %+v", res.Cache)
	}
}
