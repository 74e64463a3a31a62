package scanfarm

import (
	"context"
	"sync/atomic"
	"testing"

	"github.com/golitho/hsd/internal/core"
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
func (densityDetector) Score(c layout.Clip) (float64, error) {
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

func (d *cancelAfter) Score(c layout.Clip) (float64, error) {
	if d.scored.Add(1) == d.cut {
		d.cancel()
	}
	return d.Detector.Score(c)
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
		StrideNM:  cfg.StrideNM,
		SkipEmpty: cfg.SkipEmpty,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted {
		t.Fatal("reference scan interrupted")
	}
	return res.Findings
}

// flakyDetector fails (or panics) on its first Fails calls globally,
// then behaves like the inner detector: the transient-fault workload
// that retries must absorb without losing a finding.
type flakyDetector struct {
	inner  core.Detector
	fails  *atomic.Int64
	panics bool
}

func (d *flakyDetector) Name() string                 { return "flaky" }
func (d *flakyDetector) Fit([]core.LabeledClip) error { return nil }
func (d *flakyDetector) Threshold() float64           { return d.inner.Threshold() }
func (d *flakyDetector) Score(c layout.Clip) (float64, error) {
	if d.fails.Add(-1) >= 0 {
		if d.panics {
			panic("transient chaos")
		}
		return 0, errTransient
	}
	return d.inner.Score(c)
}

// poisonMarker is a shape size no generated tile produces, even after
// window clipping (tile shapes clip to widths {64, 132, 256, 644, 768,
// 900}); windows containing the full marker are permanently poison.
// Content-based (not position-based) because the coordinator scores
// canonical translated clips. Small enough (333 < stride 512) that at
// least one window contains it unclipped.
var poisonMarker = geom.Pt(333, 333)

// poisonDetector panics on any clip containing the poison marker — a
// permanently failing region whose shard must end up quarantined.
type poisonDetector struct {
	inner core.Detector
}

func (d *poisonDetector) Name() string                 { return "poison" }
func (d *poisonDetector) Fit([]core.LabeledClip) error { return nil }
func (d *poisonDetector) Threshold() float64           { return d.inner.Threshold() }
func (d *poisonDetector) Score(c layout.Clip) (float64, error) {
	for _, s := range c.Shapes {
		if s.Dx() == poisonMarker.X && s.Dy() == poisonMarker.Y {
			panic("poison window")
		}
	}
	return d.inner.Score(c)
}

// poisonRect returns a poison-marker shape anchored at (x, y).
func poisonRect(x, y int) geom.Rect {
	return geom.R(x, y, x+poisonMarker.X, y+poisonMarker.Y)
}

// testChipEmpty returns a chip with no geometry.
func testChipEmpty() *layout.Layout { return layout.New("empty") }

// shardOf returns the shard ID owning the window centered at c.
func shardOf(p Plan, c geom.Point) int {
	row := (c.Y - p.Center(0, 0).Y) / p.StrideNM
	return row / p.ShardRows
}
