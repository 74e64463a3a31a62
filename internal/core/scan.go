package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
)

// Grid is the window-center grid of a full-chip scan: which windows a
// scan of Bounds visits, and in what order. It is a pure function of
// the chip bounds and the window geometry, and it is the only place
// that decision is made: ScanCtx enumerates through it and
// scanfarm.Plan embeds it, so the farm and its reference agree on every
// center.
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

// ScanResult is the outcome of a scan.
type ScanResult struct {
	// Findings are the flagged windows in enumeration order (row-major
	// over window centers), not score order.
	Findings []Finding
	// Windows is the number of windows enumerated.
	Windows int
}

// ScanCtx slides a detection window across the chip and returns the
// flagged windows. Cores tile the die, so every location is scored
// exactly once. It is the reference loop scanfarm.Run's findings are
// checked against: each window is ClipAt plus Score, in place.
// Workers split the windows by a fixed stride, worker g scoring windows
// g, g+W, ... on the one det (see Detector's contract) into its own
// slots, so the findings do not depend on Workers.
//
// The first window error in enumeration order is returned with the
// window's index and centre. A cancelled ctx returns its error and no
// findings. Retry, panic isolation and a resumable partial result are
// the farm's contract, not this loop's.
func ScanCtx(ctx context.Context, chip *layout.Layout, det Detector, cfg ScanConfig) (ScanResult, error) {
	grid, err := NewGrid(chip.Bounds(), cfg.ClipNM, cfg.CoreFrac)
	if err != nil {
		return ScanResult{}, err
	}
	n := grid.Windows()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	center := func(i int) geom.Point { return grid.Center(i%grid.Cols, i/grid.Cols) }
	// A skipped window keeps its NaN, which is below every threshold.
	scores := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < n && ctx.Err() == nil; i += workers {
				scores[i] = math.NaN()
				clip, err := chip.ClipAt(center(i), grid.ClipNM, grid.CoreFrac)
				if err == nil && !(cfg.SkipEmpty && len(clip.Shapes) == 0) {
					scores[i], err = det.Score(ctx, clip)
				}
				if err != nil {
					// This worker's later windows cannot hold the first error.
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return ScanResult{}, fmt.Errorf("core: scan: %w", err)
	}
	res := ScanResult{Windows: n}
	thr := det.Threshold()
	for i, score := range scores {
		if errs[i] != nil {
			return ScanResult{}, fmt.Errorf("core: scan window %d at %v: %w", i, center(i), errs[i])
		}
		if score >= thr {
			res.Findings = append(res.Findings, Finding{Center: center(i), Score: score})
		}
	}
	return res, nil
}
