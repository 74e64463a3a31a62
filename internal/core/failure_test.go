package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
)

// errDetector fails on clips overlapping Bad.
type errDetector struct {
	Bad geom.Rect
}

var errInjected = errors.New("injected failure")

func (e *errDetector) Name() string                  { return "err" }
func (e *errDetector) Fit(train []LabeledClip) error { return nil }
func (e *errDetector) Threshold() float64            { return 0.5 }
func (e *errDetector) Score(clip layout.Clip) (float64, error) {
	if clip.Window.Overlaps(e.Bad) {
		return 0, errInjected
	}
	return 0, nil
}

func TestScanPropagatesDetectorErrors(t *testing.T) {
	chip := layout.New("chip")
	if err := chip.AddRect(geom.R(0, 0, 4096, 96)); err != nil {
		t.Fatal(err)
	}
	det := &errDetector{Bad: geom.R(2000, 0, 2100, 100)}
	_, err := Scan(chip, det, ScanConfig{Workers: 3})
	if !errors.Is(err, errInjected) {
		t.Fatalf("scan error = %v, want injected failure", err)
	}
}

func TestEvaluatePropagatesScoreErrors(t *testing.T) {
	train, test := tinySplits(t)
	det := &errDetector{Bad: test[0].Clip.Window}
	_, err := Evaluate(det, "T1", train, test, EvalOptions{})
	if !errors.Is(err, errInjected) {
		t.Fatalf("evaluate error = %v, want injected failure", err)
	}
}

// fitFailDetector always fails to train.
type fitFailDetector struct{}

func (fitFailDetector) Name() string                       { return "fitfail" }
func (fitFailDetector) Fit([]LabeledClip) error            { return errInjected }
func (fitFailDetector) Threshold() float64                 { return 0.5 }
func (fitFailDetector) Score(layout.Clip) (float64, error) { return 0, nil }

func TestEvaluatePropagatesFitErrors(t *testing.T) {
	train, test := tinySplits(t)
	_, err := Evaluate(fitFailDetector{}, "T1", train, test, EvalOptions{})
	if !errors.Is(err, errInjected) {
		t.Fatalf("evaluate error = %v, want injected failure", err)
	}
}

func TestEnsemblePropagatesMemberFitError(t *testing.T) {
	train, _ := tinySplits(t)
	ens := NewEnsemble(fitFailDetector{})
	if err := ens.Fit(train); !errors.Is(err, errInjected) {
		t.Fatalf("ensemble fit error = %v", err)
	}
}

func TestEvaluateSuiteSmoke(t *testing.T) {
	s := getTinySuite(t)
	results, err := EvaluateSuite(func() Detector {
		return &stubDetector{Target: geom.R(0, 0, 10, 10)}
	}, s, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(s.Benchmarks) {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Confusion.Total() == 0 {
			t.Fatal("empty confusion in suite evaluation")
		}
	}
}

func TestScanStrideCoversChip(t *testing.T) {
	chip := layout.New("chip")
	// A hotspot-marker shape in every corner and the centre.
	marks := []geom.Rect{
		geom.R(10, 10, 30, 30),
		geom.R(4000, 10, 4050, 60),
		geom.R(10, 4000, 60, 4050),
		geom.R(4000, 4000, 4060, 4060),
		geom.R(2000, 2000, 2080, 2080),
	}
	for _, m := range marks {
		if err := chip.AddRect(m); err != nil {
			t.Fatal(err)
		}
	}
	// A detector that flags any window with geometry: every mark must be
	// covered by at least one flagged window.
	det := &stubDetector{Target: geom.R(0, 0, 4096, 4096)}
	findings, err := Scan(chip, det, ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range marks {
		hit := false
		for _, f := range findings {
			win := geom.R(f.Center.X-512, f.Center.Y-512, f.Center.X+512, f.Center.Y+512)
			if win.ContainsRect(m) {
				hit = true
				break
			}
		}
		if !hit {
			t.Fatalf("mark %v not covered by any flagged window", m)
		}
	}
}

// panicDetector panics on clips overlapping Bad, the worst-case failure
// mode of a buggy detector: without window-boundary recovery it would
// kill the whole scan process.
type panicDetector struct {
	Bad geom.Rect
}

func (p *panicDetector) Name() string                  { return "panic" }
func (p *panicDetector) Fit(train []LabeledClip) error { return nil }
func (p *panicDetector) Threshold() float64            { return 0.5 }
func (p *panicDetector) Score(clip layout.Clip) (float64, error) {
	if clip.Window.Overlaps(p.Bad) {
		panic("poison window")
	}
	return 0, nil
}

func TestScanIsolatesDetectorPanic(t *testing.T) {
	chip := layout.New("chip")
	if err := chip.AddRect(geom.R(0, 0, 4096, 96)); err != nil {
		t.Fatal(err)
	}
	det := &panicDetector{Bad: geom.R(2000, 0, 2100, 100)}
	_, err := Scan(chip, det, ScanConfig{Workers: 3})
	if err == nil {
		t.Fatal("scan swallowed a detector panic")
	}
	if !strings.Contains(err.Error(), "detector panic") {
		t.Fatalf("error %v does not identify the panic", err)
	}
	// The offending window must be identifiable from the error alone:
	// the panicking window's center coordinates are attached.
	if !strings.Contains(err.Error(), "at (") {
		t.Fatalf("error %v lacks window coordinates", err)
	}
}

// TestScanPanicAttributionDeterministic: with several poison windows
// and racing workers, the reported window must not depend on which
// worker hit its poison first — the scan always attributes the
// lowest-index failing window, so the error string is identical from
// serial to 8-way parallel.
func TestScanPanicAttributionDeterministic(t *testing.T) {
	chip := layout.New("chip")
	if err := chip.AddRect(geom.R(0, 0, 4096, 96)); err != nil {
		t.Fatal(err)
	}
	// The poison region overlaps two adjacent windows, so with parallel
	// workers either may fail first; attribution must still pick the
	// lower-index one.
	det := &panicDetector{Bad: geom.R(2000, 0, 2100, 100)}
	var want string
	for workers := 1; workers <= 8; workers++ {
		_, err := Scan(chip, det, ScanConfig{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: scan swallowed the panic", workers)
		}
		if workers == 1 {
			want = err.Error()
			continue
		}
		if err.Error() != want {
			t.Fatalf("workers=%d: attribution drifted:\ngot  %s\nwant %s",
				workers, err, want)
		}
	}
}

// panicBatchDetector is the batch-capable twin of panicDetector: it
// implements CtxScorer and CtxBatchScorer like the neural detectors and
// the router, with Score delegating to ScoreCtx as theirs does, so the
// scan's ScoreClipCtx dispatch takes the ctx-scoring path. Panic
// isolation must hold there too.
type panicBatchDetector struct {
	Bad geom.Rect
}

func (p *panicBatchDetector) Name() string            { return "panic-batch" }
func (p *panicBatchDetector) Fit([]LabeledClip) error { return nil }
func (p *panicBatchDetector) Threshold() float64      { return 0.5 }
func (p *panicBatchDetector) Score(clip layout.Clip) (float64, error) {
	return p.ScoreCtx(context.Background(), clip)
}
func (p *panicBatchDetector) ScoreCtx(_ context.Context, clip layout.Clip) (float64, error) {
	if clip.Window.Overlaps(p.Bad) {
		panic("poison window (ctx)")
	}
	return 0, nil
}
func (p *panicBatchDetector) ScoreBatchCtx(_ context.Context, clips []layout.Clip) ([]float64, error) {
	for _, clip := range clips {
		if clip.Window.Overlaps(p.Bad) {
			panic("poison window (batch)")
		}
	}
	return make([]float64, len(clips)), nil
}

var (
	_ CtxScorer      = (*panicBatchDetector)(nil)
	_ CtxBatchScorer = (*panicBatchDetector)(nil)
)

// TestScanIsolatesBatchDetectorPanic: the parallel scan isolates panics
// raised on the batch-capable dispatch path (CtxScorer/CtxBatchScorer
// detectors) exactly like plain-Score panics, with identical
// window attribution across worker counts.
func TestScanIsolatesBatchDetectorPanic(t *testing.T) {
	chip := layout.New("chip")
	if err := chip.AddRect(geom.R(0, 0, 4096, 96)); err != nil {
		t.Fatal(err)
	}
	det := &panicBatchDetector{Bad: geom.R(2000, 0, 2100, 100)}
	var want string
	for workers := 1; workers <= 8; workers++ {
		_, err := Scan(chip, det, ScanConfig{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: scan swallowed a batch-path panic", workers)
		}
		if !strings.Contains(err.Error(), "detector panic") ||
			!strings.Contains(err.Error(), "at (") {
			t.Fatalf("workers=%d: error %v lacks panic attribution", workers, err)
		}
		if workers == 1 {
			want = err.Error()
			continue
		}
		if err.Error() != want {
			t.Fatalf("workers=%d: batch-path attribution drifted:\ngot  %s\nwant %s",
				workers, err, want)
		}
	}
	// ScoreClipsCtx (the serve batch path) has no isolation contract —
	// but Evaluate and the scan must never share a poison process. The
	// scan's recovery is the boundary; verify the panic really came
	// through the ctx path, proving the dispatch under test.
	if !strings.Contains(want, "poison window (ctx)") {
		t.Fatalf("panic did not route through the ctx-scoring path: %s", want)
	}
}
