package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
)

// densityDetector deterministically flags windows by drawn density.
type densityDetector struct{ thr float64 }

func (d densityDetector) Name() string            { return "density" }
func (d densityDetector) Fit([]LabeledClip) error { return nil }
func (d densityDetector) Threshold() float64      { return d.thr }
func (densityDetector) Score(_ context.Context, c layout.Clip) (float64, error) {
	return c.Density(), nil
}

// scanAll runs ScanCtx to completion under a background context and
// returns its findings, in window-enumeration order.
func scanAll(chip *layout.Layout, det Detector, cfg ScanConfig) ([]Finding, error) {
	res, err := ScanCtx(context.Background(), chip, det, cfg)
	return res.Findings, err
}

// scanChip builds a chip with a deterministic mix of dense and sparse
// regions so a density scan flags a scattered subset of windows.
func scanChip(t *testing.T) *layout.Layout {
	t.Helper()
	l := layout.New("chip")
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
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

// flagAll flags every window the CNN scores, so a scan's findings carry
// each scored window's bits.
type flagAll struct{ *NeuralDetector }

func (flagAll) Threshold() float64 { return math.Inf(-1) }

// TestScanCtxWorkersBitsEqual: the strided split gives every worker
// count the findings one worker gives, scores equal to the bit, with a
// fitted CNN scored clip by clip on a chip of suite clips.
func TestScanCtxWorkersBitsEqual(t *testing.T) {
	det, clips := fitSharedCNN(t)
	chip := layout.New("clips")
	for i, c := range clips {
		c = c.Translate()
		off := geom.Pt(i%4*c.Window.Dx(), i/4*c.Window.Dy())
		for _, s := range c.Shapes {
			if err := chip.AddRect(s.Translate(off)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var want ScanResult
	for _, workers := range []int{1, 2, 8} {
		res, err := ScanCtx(context.Background(), chip, flagAll{det}, ScanConfig{Workers: workers, SkipEmpty: true})
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			if len(res.Findings) < 2 {
				t.Fatalf("%d findings over %d windows: the comparison is vacuous", len(res.Findings), res.Windows)
			}
			want = res
			continue
		}
		if res.Windows != want.Windows || len(res.Findings) != len(want.Findings) {
			t.Fatalf("workers=%d: %d findings over %d windows, want %d over %d",
				workers, len(res.Findings), res.Windows, len(want.Findings), want.Windows)
		}
		for i, f := range res.Findings {
			w := want.Findings[i]
			if f.Center != w.Center || math.Float64bits(f.Score) != math.Float64bits(w.Score) {
				t.Fatalf("workers=%d: finding %d = %+v, want %+v", workers, i, f, w)
			}
		}
	}
}

// TestScanCtxCancelled: a cancelled context ends the scan with an error
// wrapping its cause and no findings.
func TestScanCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ScanCtx(ctx, scanChip(t), densityDetector{thr: 0.5}, ScanConfig{Workers: 2})
	if !errors.Is(err, context.Canceled) || res.Findings != nil {
		t.Fatalf("pre-cancelled scan = %+v, %v; want no findings and context.Canceled", res, err)
	}
}
