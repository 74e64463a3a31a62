package scanfarm

import (
	"context"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/iccad"
	"github.com/golitho/hsd/internal/layout"
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

// TestMissPathAllocations pins what a cache-miss window may allocate when
// the scan shares feature tiles: what a hit allocates (its clip's shapes,
// its share of the findings) and no tensor. The 16 x 16 x 16 tensor is
// 32 KB, which every miss used to make and drop; the tiles and the
// assembled window live in the worker. It also pins what the worker
// holds to the shard's height: the same bytes on a chip eight times as
// wide.
func TestMissPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items on purpose under -race")
	}
	det := fittedCNN(t, false)
	newWorker := func(chip *layout.Layout) *worker {
		cfg := Config{SkipEmpty: true, ShardRows: 2}.withDefaults()
		plan, err := newPlan(chip.Bounds(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := &worker{
			chip: chip, det: det, name: det.Name(), thr: det.Threshold(),
			plan: plan, cfg: cfg,
			breaker: resilience.NewBreaker(cfg.Breaker),
			mets:    newFarmMetrics(nil),
			tiles:   newTileMemo(det, plan),
		}
		if w.tiles == nil {
			t.Fatal("the zoo's geometry scans without tiles")
		}
		return w
	}
	w := newWorker(cnnChip(t, 6))
	// The last shard is clear of the chip's blank block: every window is
	// scored, and with no cache every one is a miss on every pass.
	id := w.plan.NumShards - 1
	ctx := context.Background()
	want, err := w.scanShard(ctx, id, 1) // fills the pools, sizes the score buffer
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := w.plan.ShardRowRange(id)
	windows := (r1 - r0) * w.plan.Cols
	var m0, m1 runtime.MemStats
	const runs = 10
	runtime.ReadMemStats(&m0)
	perShard := testing.AllocsPerRun(runs, func() {
		got, err := w.scanShard(ctx, id, 1)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("repeat shard: %d findings, err %v; want %d", len(got), err, len(want))
		}
	})
	runtime.ReadMemStats(&m1)
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / float64((runs+1)*windows)
	t.Logf("%.2f allocations, %.0f B per miss window (%d windows)", perShard/float64(windows), bytes, windows)
	if perWindow := perShard / float64(windows); perWindow > 2 {
		t.Errorf("%.1f allocations per miss window, want <= 2", perWindow)
	}
	if bytes > 8<<10 {
		t.Errorf("%.0f B per miss window, want well under the tensor's 32 KB (<= 8 KB)", bytes)
	}

	wide, err := iccad.GenerateChip(7, 48*1024, iccad.DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	strip := layout.NewWithGrid("strip", 2048)
	for _, s := range wide.Shapes() {
		if s.Max.Y <= 2048 {
			if err := strip.AddRect(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	ww := newWorker(strip)
	if ww.plan.Cols < 8*w.plan.Cols {
		t.Fatalf("strip is %d windows wide, the square chip %d", ww.plan.Cols, w.plan.Cols)
	}
	if _, err := ww.scanShard(ctx, 0, 1); err != nil {
		t.Fatal(err)
	}
	held := func(m *tileMemo) int { return len(m.coef) + len(m.have) + len(m.tensor) }
	if held(ww.tiles) != held(w.tiles) || len(w.tiles.coef) != 2*3*w.tiles.TileLen() {
		t.Fatalf("tile memo holds %d values on the strip and %d on the square chip, want 2 columns of 3 tiles on both",
			held(ww.tiles), held(w.tiles))
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
