package scanfarm

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/qualitymon"
	"github.com/golitho/hsd/internal/resilience"
)

// TestHitPathAllocations pins what a cache-hit window may allocate: the
// Shapes slice ClipAt hands back and its share of the shard's findings
// slice. Before ClipAt, Fingerprint and the worker loop were rewritten
// a hit made 15 allocations on this chip and 20 on the bench's memory
// array (a seen-map and its growth, two sorts through the reflection
// swapper, three copies of the shapes, a hash.Hash, a formatted
// detector name).
func TestHitPathAllocations(t *testing.T) {
	chip := cellChip(t, 12)
	det := &countingDetector{densityDetector: densityDetector{thr: 0.1}}
	cfg := Config{SkipEmpty: true, ShardRows: 2, CacheSize: 1 << 16}.withDefaults()
	plan, err := newPlan(chip.Bounds(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &worker{
		chip: chip, det: det, name: det.Name(), thr: det.Threshold(),
		plan: plan, cfg: cfg,
		breaker: resilience.NewBreaker(cfg.Breaker),
		cache:   NewClipCache(cfg.CacheSize),
		mets:    newFarmMetrics(nil),
	}
	// An interior shard: every window has geometry, and after one pass
	// every one of them is in the cache.
	id := plan.NumShards / 2
	ctx := context.Background()
	want, err := w.scanShard(ctx, id, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("warm-up shard flagged nothing; test layout is broken")
	}
	misses := det.scored.Load()
	r0, r1 := plan.ShardRowRange(id)
	windows := (r1 - r0) * plan.Cols

	perShard := testing.AllocsPerRun(20, func() {
		got, err := w.scanShard(ctx, id, 1)
		if err != nil || len(got) != len(want) {
			t.Fatalf("warm shard: %d findings, err %v; want %d", len(got), err, len(want))
		}
	})
	if det.scored.Load() != misses {
		t.Fatalf("warm shard ran the detector %d more times; every window should hit", det.scored.Load()-misses)
	}
	perWindow := perShard / float64(windows)
	t.Logf("%.2f allocations per hit window (%.0f over %d windows)", perWindow, perShard, windows)
	if perWindow > 2 {
		t.Fatalf("%.1f allocations per hit window (%.0f over %d windows), want <= 2", perWindow, perShard, windows)
	}
}

// namedDetector counts Name calls: most shipped detectors format their
// name on every call ("dct%dx%dx%d"), so the farm must not ask per
// window.
type namedDetector struct {
	countingDetector
	named atomic.Int64
}

func (d *namedDetector) Name() string {
	d.named.Add(1)
	return "named"
}

// TestWorkerResolvesDetectorNameOnce: a scan asks the detector its name
// at most once per worker, with or without a quality monitor attached (the event used
// to be built, name and all, for a nil monitor too), and the monitor
// still sees every scored window under that name.
func TestWorkerResolvesDetectorNameOnce(t *testing.T) {
	chip := cellChip(t, 8)
	const workers = 3
	cfg := Config{SkipEmpty: true, Workers: workers, ShardRows: 2, CacheSize: 1 << 16}
	var findings [][]core.Finding
	for _, monitored := range []bool{false, true} {
		det := &namedDetector{countingDetector: countingDetector{densityDetector: densityDetector{thr: 0.1}}}
		var qm *qualitymon.Monitor
		if monitored {
			qm = qualitymon.New(qualitymon.Options{})
			defer qm.Close()
		}
		cfg.Quality = qm
		res, err := Run(context.Background(), chip, det, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := det.named.Load(); n < 1 || n > workers {
			t.Fatalf("monitor %v: Name called %d times over %d windows, want at most once per worker (%d)",
				monitored, n, res.Windows, workers)
		}
		findings = append(findings, res.Findings)
		if !monitored {
			continue
		}
		// Every non-empty window is scored (hit or miss) and observed.
		scored := res.Cache.Hits + res.Cache.Misses
		if scored == 0 || res.Cache.Hits == 0 {
			t.Fatalf("cache stats %+v: test layout is broken", res.Cache)
		}
		sketches := qm.Snapshot().Sketches
		if len(sketches) != 1 || sketches[0].Detector != "named" || sketches[0].Stage != "scan" {
			t.Fatalf("monitor series %+v, want one (named, scan)", sketches)
		}
		if sketches[0].Slow != scored {
			t.Fatalf("monitor saw %d events, want one per scored window (%d)", sketches[0].Slow, scored)
		}
	}
	if !reflect.DeepEqual(findings[0], findings[1]) {
		t.Fatal("attaching a monitor changed the findings")
	}
}
