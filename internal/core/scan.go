package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/golitho/hsd/internal/faultinject"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/tensor"
	"github.com/golitho/hsd/internal/trace"
)

// ScanScoreSite is the faultinject hook name fired before each window
// score, for chaos-testing scan error handling.
const ScanScoreSite = "core.scan.score"

// Grid is the window-center grid of a full-chip scan: which windows a
// scan of Bounds visits, and in what order. It is a pure function of
// the chip bounds and the window geometry, and it is the only place
// that decision is made: ScanCtx enumerates through it and
// scanfarm.Plan embeds it, so both schedulers agree on every center.
//
// Centers are anchored so the first core starts at Bounds.Min: the
// cores (not the windows) must tile the die, otherwise geometry in the
// border margin of width (ClipNM-core)/2 is never scored inside a core.
// Windows overhang the die edge instead, which is harmless.
type Grid struct {
	// Bounds is the chip bounding box the grid covers.
	Bounds geom.Rect
	// ClipNM is the detection window edge (default 1024).
	ClipNM int
	// CoreFrac is the scored core fraction (default 0.5).
	CoreFrac float64
	// Cols, Rows are the dimensions of the window-center grid; both are
	// zero for empty bounds.
	Cols, Rows int

	coreHalf int
}

// NewGrid builds the grid over bounds, filling the geometry defaults
// for non-positive (or, for coreFrac, out-of-range) arguments. A
// geometry whose core half-edge rounds to zero has no cores to tile the
// die with and is refused.
func NewGrid(bounds geom.Rect, clipNM int, coreFrac float64) (Grid, error) {
	g := Grid{Bounds: bounds, ClipNM: clipNM, CoreFrac: coreFrac}
	if g.ClipNM <= 0 {
		g.ClipNM = 1024
	}
	if g.CoreFrac <= 0 || g.CoreFrac > 1 {
		g.CoreFrac = 0.5
	}
	// The half-edge of the scored core, matching layout.ClipAt's rounding.
	g.coreHalf = int(float64(g.ClipNM) * g.CoreFrac / 2)
	if g.coreHalf <= 0 {
		return Grid{}, fmt.Errorf("core: scan geometry ClipNM=%d CoreFrac=%v has an empty core (ClipNM*CoreFrac must be at least 2)",
			g.ClipNM, g.CoreFrac)
	}
	if !bounds.Empty() {
		g.Cols = ceilDiv(bounds.Dx(), g.CoreNM())
		g.Rows = ceilDiv(bounds.Dy(), g.CoreNM())
	}
	return g, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// CoreNM is the edge of the scored core region of every window, and the
// window step: the core edge exactly as layout.ClipAt rounds it, so
// cores tile the chip without hairline gaps when ClipNM*CoreFrac is odd.
func (g Grid) CoreNM() int { return 2 * g.coreHalf }

// Windows returns the number of windows in the grid.
func (g Grid) Windows() int { return g.Cols * g.Rows }

// Center returns the window center at grid position (col, row).
// Enumeration order is row-major: window i is Center(i%Cols, i/Cols).
func (g Grid) Center(col, row int) geom.Point {
	return geom.Pt(
		g.Bounds.Min.X+g.coreHalf+col*g.CoreNM(),
		g.Bounds.Min.Y+g.coreHalf+row*g.CoreNM(),
	)
}

// ScoreWindow scores one window with panic isolation: a panicking
// detector (or a panic fault armed at site, the caller's faultinject
// hook) fails the window with an error instead of crashing the scan.
// The caller attaches the window's coordinates when it propagates the
// error, so a poison window is identifiable from the failure alone.
func ScoreWindow(ctx context.Context, site string, d Detector, clip layout.Clip) (score float64, err error) {
	defer recoverWindow(&err)
	if err := faultinject.Hit(site); err != nil {
		return 0, err
	}
	return ScoreClipCtx(ctx, d, clip)
}

// Conv1Window is a window that ScoreWindowConv1 scores from the sums of
// the detector's first convolution (NeuralDetector.Conv1), some of which
// the caller already holds.
type Conv1Window struct {
	// Plane is the window's feature vector, zero-bordered and stored
	// transposed, and Taps the convolution's table over it
	// (nn.Conv2D.TransposedTaps).
	Plane []float64
	Taps  tensor.RowTable
	// Sums receives the convolution's sums over Plane, bias not yet
	// added and transposed (nn.Conv2D.SumRows): rows [Lo, Hi) hold them
	// already, and only the others are computed.
	Sums   []float64
	Lo, Hi int
}

// ScoreWindowConv1 is ScoreWindow for a caller that holds the window's
// feature tensor and, in part, its first-layer sums: site fires first,
// once, and then win and the rest of the score run under the same panic
// isolation. The detector must have a Conv1; its score has the bits
// ScoreWindow gives the clip the window was built from.
func ScoreWindowConv1(ctx context.Context, site string, d *NeuralDetector,
	win func() (Conv1Window, error)) (score float64, err error) {
	defer recoverWindow(&err)
	if err := faultinject.Hit(site); err != nil {
		return 0, err
	}
	w, err := win()
	if err != nil {
		return 0, err
	}
	return d.scoreConv1(ctx, w), nil
}

// recoverWindow, deferred, turns a panic under one window's score into
// that window's error.
func recoverWindow(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("detector panic: %v", r)
	}
}

// ScanConfig controls full-chip scanning.
type ScanConfig struct {
	// ClipNM and CoreFrac are the window geometry; zero values take
	// Grid's defaults (1024, 0.5). The window steps by the core edge.
	ClipNM   int
	CoreFrac float64
	// Workers bounds concurrency; 0 means GOMAXPROCS.
	Workers int
	// SkipEmpty skips windows with no geometry (always sound: empty
	// windows cannot print defects).
	SkipEmpty bool
}

// Finding is one flagged window of a full-chip scan.
type Finding struct {
	// Center of the flagged window in chip coordinates.
	Center geom.Point
	// Score is the detector output for the window.
	Score float64
}

// ScanResult is the outcome of a context-aware scan.
type ScanResult struct {
	// Findings are the flagged windows in deterministic enumeration
	// order (row-major over window centers) — not score order. A
	// cancelled scan's Findings are guaranteed to be a prefix of the
	// Findings an uncancelled scan of the same inputs would return.
	Findings []Finding
	// Windows is the number of windows enumerated.
	Windows int
	// Completed is the length of the contiguous prefix of windows fully
	// processed; equal to Windows when the scan ran to completion.
	// Findings only reports flags from this prefix.
	Completed int
	// Interrupted is true when the context was cancelled or its
	// deadline expired before every window was scored.
	Interrupted bool
	// Cause is the context error when Interrupted, nil otherwise.
	Cause error
}

// ScanCtx slides a detection window across the chip and returns the
// flagged windows. Cores tile the die, so every location is scored
// exactly once. Windows are scored in parallel on the one det (see
// Detector's contract). It honors cancellation and
// deadlines, returning the partial findings gathered so far with an
// explicit Interrupted marker instead of an error. Findings are in
// window-enumeration order and cover exactly the contiguous prefix of
// completed windows, so a cancelled scan's findings are a prefix of the
// deterministic uncancelled result — resumable and comparable.
//
// Window errors inside the completed prefix still abort with an error;
// errors beyond the prefix of an interrupted scan are unreported, since
// their windows are not part of the result.
func ScanCtx(ctx context.Context, chip *layout.Layout, det Detector, cfg ScanConfig) (ScanResult, error) {
	grid, err := NewGrid(chip.Bounds(), cfg.ClipNM, cfg.CoreFrac)
	if err != nil {
		return ScanResult{}, err
	}
	n := grid.Windows()
	if n == 0 {
		return ScanResult{}, nil
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	findings := make([]*Finding, n)
	errs := make([]error, n)
	processed := make([]atomic.Bool, n)
	// Resolve the tracer once: with tracing off, the per-window loop must
	// not pay even the context lookups (the scan hot path is the
	// zero-cost-when-disabled acceptance surface; see
	// BenchmarkScanTracedVsUntraced).
	traced := !trace.Disabled(ctx)
	center := func(i int) geom.Point { return grid.Center(i%grid.Cols, i/grid.Cols) }
	// scanWindow processes window i; the caller marks it processed.
	scanWindow := func(i int) {
		wctx, wsp := ctx, (*trace.Span)(nil)
		if traced {
			wctx, wsp = trace.Start(ctx, "scan.window")
			wsp.SetAttrInt("index", i)
		}
		defer wsp.End()
		clip, err := chip.ClipAt(center(i), grid.ClipNM, grid.CoreFrac)
		if err != nil {
			errs[i] = err
			wsp.SetError(err)
			return
		}
		if cfg.SkipEmpty && len(clip.Shapes) == 0 {
			wsp.SetAttr("skipped", "empty")
			return
		}
		score, err := ScoreWindow(wctx, ScanScoreSite, det, clip)
		if err != nil {
			errs[i] = err
			wsp.SetError(err)
			return
		}
		if score >= det.Threshold() {
			findings[i] = &Finding{Center: center(i), Score: score}
			wsp.SetAttr("flagged", "true")
		}
	}

	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case i, ok := <-jobs:
					if !ok {
						return
					}
					scanWindow(i)
					processed[i].Store(true)
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	res := ScanResult{Windows: n}
	// Completed is the maximal contiguous prefix of processed windows:
	// the portion of the deterministic enumeration the scan fully
	// covered before cancellation (workers finish out of order, so
	// isolated later windows may also be done; they are not reported).
	for res.Completed < n && processed[res.Completed].Load() {
		res.Completed++
	}
	if err := ctx.Err(); err != nil && res.Completed < n {
		res.Interrupted = true
		res.Cause = err
	}
	for i := 0; i < res.Completed; i++ {
		if errs[i] != nil {
			return ScanResult{}, fmt.Errorf("core: scan window %d at %v: %w", i, center(i), errs[i])
		}
	}
	for _, f := range findings[:res.Completed] {
		if f != nil {
			res.Findings = append(res.Findings, *f)
		}
	}
	return res, nil
}
