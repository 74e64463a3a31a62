package core

import (
	"context"
	"errors"
	"testing"

	"github.com/golitho/hsd/internal/features"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/nn"
)

// errDetector fails on clips overlapping Bad.
type errDetector struct {
	Bad geom.Rect
}

var errInjected = errors.New("injected failure")

func (e *errDetector) Name() string                  { return "err" }
func (e *errDetector) Fit(train []LabeledClip) error { return nil }
func (e *errDetector) Threshold() float64            { return 0.5 }
func (e *errDetector) Score(_ context.Context, clip layout.Clip) (float64, error) {
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
	_, err := scanAll(chip, det, ScanConfig{Workers: 3})
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

func (fitFailDetector) Name() string                                        { return "fitfail" }
func (fitFailDetector) Fit([]LabeledClip) error                             { return errInjected }
func (fitFailDetector) Threshold() float64                                  { return 0.5 }
func (fitFailDetector) Score(context.Context, layout.Clip) (float64, error) { return 0, nil }

func TestEvaluatePropagatesFitErrors(t *testing.T) {
	train, test := tinySplits(t)
	_, err := Evaluate(fitFailDetector{}, "T1", train, test, EvalOptions{})
	if !errors.Is(err, errInjected) {
		t.Fatalf("evaluate error = %v, want injected failure", err)
	}
}

// TestEvaluateCancelledFitLeavesNoModel: a fit cancelled before its
// first epoch fails Evaluate with an error wrapping context.Canceled, and
// the detector keeps no partial network: Score still says it is not
// fitted.
func TestEvaluateCancelledFitLeavesNoModel(t *testing.T) {
	train, test := tinySplits(t)
	det := NewMLPDetector(&features.CCAS{Rings: 8, Sectors: 12}, []int{8},
		nn.TrainConfig{Epochs: 4, BatchSize: 16, Seed: 3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EvaluateCtx(ctx, det, "T1", train, test, EvalOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("evaluate error = %v, want one wrapping context.Canceled", err)
	}
	if _, err := det.Score(context.Background(), test[0].Clip); !errors.Is(err, errNotFitted) {
		t.Fatalf("Score after a cancelled fit: err = %v, want errNotFitted", err)
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
	findings, err := scanAll(chip, det, ScanConfig{})
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
