package scanfarm

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"github.com/golitho/hsd/internal/iccad"
	"github.com/golitho/hsd/internal/layout"
)

// TestHitPathAllocations pins what a cache-hit window may allocate: its
// share of the shard's findings slice, which is sized before it is
// filled, and no clip. The key comes from
// the index (FingerprintAt), so a clip built on the hit path, whose
// Shapes slice is one allocation per window, fails the test. Before
// ClipAt, Fingerprint and the worker loop were rewritten a hit made 15
// allocations on this chip and 20 on the bench's memory array (a
// seen-map and its growth, two sorts through the reflection swapper,
// three copies of the shapes, a hash.Hash, a formatted detector name);
// with the clip still built, and the findings grown by append, it made
// 1.15.
func TestHitPathAllocations(t *testing.T) {
	chip := cellChip(t, 12)
	det := &countingDetector{densityDetector: densityDetector{thr: 0.1}}
	cfg := Config{SkipEmpty: true, ShardRows: 2, CacheSize: 1 << 16}.withDefaults()
	plan, err := newPlan(chip.Bounds(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &worker{
		chip: chip, det: det, thr: det.Threshold(),
		plan: plan, cfg: cfg,
		cache: NewClipCache(cfg.CacheSize),
		mets:  newFarmMetrics(nil),
	}
	// An interior shard: every window has geometry, and after one pass
	// every one of them is in the cache.
	id := plan.NumShards / 2
	ctx := context.Background()
	want, err := w.scanShard(ctx, id)
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
		got, err := w.scanShard(ctx, id)
		if err != nil || len(got) != len(want) {
			t.Fatalf("warm shard: %d findings, err %v; want %d", len(got), err, len(want))
		}
	})
	if det.scored.Load() != misses {
		t.Fatalf("warm shard ran the detector %d more times; every window should hit", det.scored.Load()-misses)
	}
	perWindow := perShard / float64(windows)
	t.Logf("%.2f allocations per hit window (%.0f over %d windows)", perWindow, perShard, windows)
	if perWindow > 0.05 {
		t.Fatalf("%.2f allocations per hit window (%.0f over %d windows), want <= 0.05", perWindow, perShard, windows)
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
			chip: chip, det: det, thr: det.Threshold(),
			plan: plan, cfg: cfg,
			mets:  newFarmMetrics(nil),
			tiles: newTileMemo(det, plan),
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
	want, err := w.scanShard(ctx, id) // fills the pools, sizes the score buffer
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := w.plan.ShardRowRange(id)
	windows := (r1 - r0) * w.plan.Cols
	var m0, m1 runtime.MemStats
	const runs = 10
	runtime.ReadMemStats(&m0)
	perShard := testing.AllocsPerRun(runs, func() {
		got, err := w.scanShard(ctx, id)
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
	if _, err := ww.scanShard(ctx, 0); err != nil {
		t.Fatal(err)
	}
	held := func(m *tileMemo) int {
		return len(m.coef) + len(m.have) + len(m.tile) + len(m.win.Plane) + len(m.sums)
	}
	if held(ww.tiles) != held(w.tiles) || len(w.tiles.coef) != 2*3*w.tiles.TileLen() {
		t.Fatalf("tile memo holds %d values on the strip and %d on the square chip, want 2 columns of 3 tiles on both",
			held(ww.tiles), held(w.tiles))
	}
}
