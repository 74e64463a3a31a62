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
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/faultinject"
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

func TestChaosFarmKillResume(t *testing.T) {
	cases := []struct {
		name string
		det  core.Detector
	}{
		{"density", densityDetector{thr: 0.5}},
		{"router", chaosRouter(t)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runKillResume(t, tc.det) })
	}
}

func runKillResume(t *testing.T, det core.Detector) {
	chip := testChip(t, 10)
	base := Config{SkipEmpty: true, Workers: 3, ShardRows: 1, Retry: fastRetry()}
	want := referenceFindings(t, chip, det, base)
	meta := base.Meta(chip, det.Name())
	path := filepath.Join(t.TempDir(), "scan.journal")

	// Kill 70 scored windows in (of 388: three to four 20-window shards
	// done, three in flight), then 120 into the rest, then run to
	// completion: three generations over one journal, like a flaky
	// batch box.
	j, err := CreateJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	kills := []int64{70, 120}
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
		ctx, cancel := context.WithCancel(context.Background())
		genDet := det
		if gen < len(kills) {
			genDet = &cancelAfter{Detector: det, cut: kills[gen], cancel: cancel}
		}
		res, err := Run(ctx, chip, genDet, cfg)
		cancel()
		j.Close()
		if err != nil {
			t.Fatalf("generation %d: %v", gen, err)
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
	chip := testChip(t, 8)
	det := densityDetector{thr: 0.5}
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
