package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/golitho/hsd/internal/faultinject"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
)

// densityDetector deterministically flags windows by drawn density.
type densityDetector struct{ thr float64 }

func (d densityDetector) Name() string            { return "density" }
func (d densityDetector) Fit([]LabeledClip) error { return nil }
func (d densityDetector) Threshold() float64      { return d.thr }
func (densityDetector) Score(c layout.Clip) (float64, error) {
	return c.Density(), nil
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

// cancellingDetector cancels the scan's context once cut windows have
// been scored.
type cancellingDetector struct {
	densityDetector
	scored atomic.Int64
	cut    int64
	cancel context.CancelFunc
}

func (d *cancellingDetector) Score(c layout.Clip) (float64, error) {
	if d.scored.Add(1) >= d.cut {
		d.cancel()
	}
	return d.densityDetector.Score(c)
}

// TestChaosScanCancelPrefix asserts the core interruption contract: a
// cancelled ScanCtx returns partial findings that are exactly a prefix
// of the uncancelled deterministic result.
func TestChaosScanCancelPrefix(t *testing.T) {
	chip := scanChip(t)
	det := densityDetector{thr: 0.5}
	cfg := ScanConfig{ClipNM: 1024, CoreFrac: 0.5, Workers: 4}

	full, err := ScanCtx(context.Background(), chip, det, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.Interrupted || full.Completed != full.Windows {
		t.Fatalf("uncancelled scan marked interrupted: %+v", full)
	}
	if len(full.Findings) == 0 {
		t.Fatal("test chip produced no findings; scan test is vacuous")
	}

	// Cancel mid-scan from inside the detector (every window is scored:
	// no SkipEmpty), at several cut points to exercise different prefix
	// lengths.
	for _, cut := range []int{1, full.Windows / 4, full.Windows / 2} {
		ctx, cancel := context.WithCancel(context.Background())
		cutDet := &cancellingDetector{densityDetector: det, cut: int64(cut), cancel: cancel}
		partial, err := ScanCtx(ctx, chip, cutDet, cfg)
		cancel()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !partial.Interrupted {
			// The scan may legitimately finish before cancellation
			// lands when cut is near the end; only a truly partial
			// result must carry the marker.
			if partial.Completed != partial.Windows {
				t.Fatalf("cut %d: partial scan without Interrupted marker: %+v", cut, partial)
			}
			continue
		}
		if !errors.Is(partial.Cause, context.Canceled) {
			t.Fatalf("cut %d: Cause = %v, want context.Canceled", cut, partial.Cause)
		}
		if partial.Completed > full.Windows {
			t.Fatalf("cut %d: Completed %d > Windows %d", cut, partial.Completed, full.Windows)
		}
		if len(partial.Findings) > len(full.Findings) {
			t.Fatalf("cut %d: more findings than the full scan", cut)
		}
		for i, f := range partial.Findings {
			if f != full.Findings[i] {
				t.Fatalf("cut %d: finding %d = %+v, want prefix of full scan (%+v)",
					cut, i, f, full.Findings[i])
			}
		}
	}
}

// TestScanCtxPreCancelled returns immediately with an empty interrupted
// result.
func TestScanCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ScanCtx(ctx, scanChip(t), densityDetector{thr: 0.5},
		ScanConfig{ClipNM: 1024, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted || res.Completed != 0 || len(res.Findings) != 0 {
		t.Fatalf("pre-cancelled scan = %+v, want empty interrupted result", res)
	}
}

// TestScanCtxDeadline exercises the deadline path with a slow detector.
type slowDetector struct {
	densityDetector
	delay time.Duration
	calls atomic.Int64
}

func (d *slowDetector) Score(c layout.Clip) (float64, error) {
	d.calls.Add(1)
	time.Sleep(d.delay)
	return c.Density(), nil
}

func TestScanCtxDeadline(t *testing.T) {
	det := &slowDetector{densityDetector: densityDetector{thr: 0.5}, delay: 5 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	res, err := ScanCtx(ctx, scanChip(t), det, ScanConfig{ClipNM: 1024, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted || !errors.Is(res.Cause, context.DeadlineExceeded) {
		t.Fatalf("deadline scan = %+v, want Interrupted with DeadlineExceeded", res)
	}
	if res.Completed >= res.Windows {
		t.Fatalf("deadline scan completed all %d windows", res.Windows)
	}
}

// TestScanFaultInjection: an injected scoring error inside the completed
// prefix aborts the scan like a real detector error.
func TestScanFaultInjection(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	injected := errors.New("injected scan fault")
	faultinject.Set(ScanScoreSite, faultinject.Fault{Err: injected, Count: 1})
	_, err := Scan(scanChip(t), densityDetector{thr: 0.5}, ScanConfig{ClipNM: 1024, Workers: 2})
	if err == nil || !errors.Is(err, injected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if !strings.Contains(err.Error(), "scan window") {
		t.Fatalf("err = %v, want window context", err)
	}
}
