package scanfarm

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/faultinject"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
)

// densityDetector deterministically flags windows by drawn density; it
// is translation-invariant (Density is window-relative), like every
// shipped detector, which is what the clip cache relies on.
type densityDetector struct{ thr float64 }

func (d densityDetector) Name() string                 { return "density" }
func (d densityDetector) Fit([]core.LabeledClip) error { return nil }
func (d densityDetector) Threshold() float64           { return d.thr }
func (densityDetector) Score(_ context.Context, c layout.Clip) (float64, error) {
	return c.Density(), nil
}

// cancelAfter wraps a detector and cancels the scan's context from
// inside the worker that scores the cut-th clip, so the cancel lands
// mid-shard like a real kill.
type cancelAfter struct {
	core.Detector
	scored atomic.Int64
	cut    int64
	cancel context.CancelFunc
}

func (d *cancelAfter) Score(ctx context.Context, c layout.Clip) (float64, error) {
	if d.scored.Add(1) == d.cut {
		d.cancel()
	}
	return d.Detector.Score(ctx, c)
}

// testChip builds a chip with a deterministic mix of dense and sparse
// tiles so a density scan flags a scattered subset of windows.
func testChip(t testing.TB, tiles int) *layout.Layout {
	t.Helper()
	l := layout.New("chip")
	for i := 0; i < tiles; i++ {
		for j := 0; j < tiles; j++ {
			x, y := i*1024, j*1024
			var r geom.Rect
			if (i+j)%3 == 0 {
				r = geom.R(x, y, x+900, y+900) // dense: flagged
			} else {
				r = geom.R(x, y, x+64, y+64) // sparse
			}
			if err := l.AddRect(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return l
}

// cellChip builds a repeated-standard-cell chip: the same cell pattern
// stamped on a regular grid, so canonical clip contents repeat heavily
// across windows — the workload the content-addressed cache exists for.
func cellChip(t testing.TB, tiles int) *layout.Layout {
	t.Helper()
	l := layout.New("cells")
	cell := []geom.Rect{
		geom.R(100, 100, 400, 160),
		geom.R(100, 300, 400, 360),
		geom.R(600, 100, 660, 900),
		geom.R(100, 600, 900, 660),
	}
	for i := 0; i < tiles; i++ {
		for j := 0; j < tiles; j++ {
			off := geom.Pt(i*1024, j*1024)
			for _, r := range cell {
				if err := l.AddRect(r.Translate(off)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return l
}

// referenceFindings is the ground truth a farm run must reproduce: the
// plain single-process core.ScanCtx result in enumeration order.
func referenceFindings(t testing.TB, chip *layout.Layout, det core.Detector, cfg Config) []core.Finding {
	t.Helper()
	res, err := core.ScanCtx(context.Background(), chip, det, core.ScanConfig{
		ClipNM:    cfg.ClipNM,
		CoreFrac:  cfg.CoreFrac,
		SkipEmpty: cfg.SkipEmpty,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Findings
}

// poisonMarker is a shape size no generated tile produces, even after
// window clipping (tile shapes clip to widths {64, 132, 256, 644, 768,
// 900}); windows containing the full marker are permanently poison.
// Content-based (not position-based) because the coordinator scores
// canonical translated clips. Small enough (333 < stride 512) that at
// least one window contains it unclipped.
var poisonMarker = geom.Pt(333, 333)

// poisonDetector panics on any clip containing the poison marker — a
// permanently failing region whose shard must end up quarantined — and
// counts the calls it panics on.
type poisonDetector struct {
	inner  core.Detector
	panics atomic.Int64
}

func (d *poisonDetector) Name() string                 { return "poison" }
func (d *poisonDetector) Fit([]core.LabeledClip) error { return nil }
func (d *poisonDetector) Threshold() float64           { return d.inner.Threshold() }
func (d *poisonDetector) Score(ctx context.Context, c layout.Clip) (float64, error) {
	for _, s := range c.Shapes {
		if s.Dx() == poisonMarker.X && s.Dy() == poisonMarker.Y {
			d.panics.Add(1)
			panic("poison window")
		}
	}
	return d.inner.Score(ctx, c)
}

// poisonRect returns a poison-marker shape anchored at (x, y).
func poisonRect(x, y int) geom.Rect {
	return geom.R(x, y, x+poisonMarker.X, y+poisonMarker.Y)
}

// testChipEmpty returns a chip with no geometry.
func testChipEmpty() *layout.Layout { return layout.New("empty") }

// shardOf returns the shard ID owning the window centered at c.
func shardOf(p Plan, c geom.Point) int {
	row := (c.Y - p.Center(0, 0).Y) / p.CoreNM()
	return row / p.ShardRows
}

// outsideQuarantine returns the findings of want outside every shard in
// qs: what a run that quarantined qs must still report.
func outsideQuarantine(p Plan, want []core.Finding, qs []Quarantine) []core.Finding {
	gone := map[int]bool{}
	for _, q := range qs {
		gone[q.ShardID] = true
	}
	var rest []core.Finding
	for _, f := range want {
		if !gone[shardOf(p, f.Center)] {
			rest = append(rest, f)
		}
	}
	return rest
}

// quarantinedWindow returns the window a quarantine's error names, and
// fails the test unless the quarantine reports its shard's bounds and
// the window is one of that shard's own.
func quarantinedWindow(t testing.TB, p Plan, q Quarantine) geom.Point {
	t.Helper()
	var shard int
	var at geom.Point
	i := strings.Index(q.Err, "scanfarm: shard")
	if i < 0 {
		t.Fatalf("quarantine error %q names no window", q.Err)
	}
	if _, err := fmt.Sscanf(q.Err[i:], "scanfarm: shard %d window at (%d,%d):", &shard, &at.X, &at.Y); err != nil {
		t.Fatalf("quarantine error %q names no window: %v", q.Err, err)
	}
	if q.Bounds != p.ShardBounds(q.ShardID) || shard != q.ShardID || shardOf(p, at) != q.ShardID || !at.In(q.Bounds) {
		t.Fatalf("quarantine %+v does not name a window of its own shard", q)
	}
	return at
}

// checkFaulted holds a run under a fault armed at site to the farm's
// contract: a shard is scanned once, so every firing that fails a scan
// (msg non-empty, and what the quarantine reports) quarantines the one
// shard it fired in, with that shard's bounds; a firing that only slows
// a window (msg empty) quarantines nothing; and every other shard's
// findings are want's.
func checkFaulted(t testing.TB, p Plan, res Result, want []core.Finding, site, msg string) {
	t.Helper()
	if res.Interrupted || res.Completed != res.Shards {
		t.Fatalf("interrupted=%v, %d of %d shards completed", res.Interrupted, res.Completed, res.Shards)
	}
	fired := faultinject.Fired(site)
	if msg == "" {
		fired = 0
	}
	if len(res.Quarantined) != fired {
		t.Fatalf("%d failing firings quarantined %d shards: %+v", fired, len(res.Quarantined), res.Quarantined)
	}
	for _, q := range res.Quarantined {
		if !strings.Contains(q.Err, msg) || q.Bounds != p.ShardBounds(q.ShardID) {
			t.Fatalf("quarantine %+v: want the shard's bounds and an error holding %q", q, msg)
		}
		if site == WindowScoreSite {
			quarantinedWindow(t, p, q)
		}
	}
	if rest := outsideQuarantine(p, want, res.Quarantined); !reflect.DeepEqual(res.Findings, rest) {
		t.Fatalf("findings outside the quarantined shards diverged:\ngot  %v\nwant %v", res.Findings, rest)
	}
}
