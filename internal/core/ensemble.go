package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/golitho/hsd/internal/layout"
)

// Ensemble combines heterogeneous detectors by thresholded voting: its
// score is the fraction of members that flag the clip.
type Ensemble struct {
	// Members are fitted together on the same training split.
	Members []Detector
	// Vote is the member fraction required to flag (default 0.5, i.e.
	// majority).
	Vote float64

	fitted bool
}

var _ Detector = (*Ensemble)(nil)

// NewEnsemble builds a majority-voting ensemble.
func NewEnsemble(members ...Detector) *Ensemble { return &Ensemble{Members: members} }

// Name implements Detector.
func (e *Ensemble) Name() string {
	names := make([]string, len(e.Members))
	for i, m := range e.Members {
		names[i] = m.Name()
	}
	return "ensemble(" + strings.Join(names, ",") + ")"
}

// Fit implements Detector.
func (e *Ensemble) Fit(train []LabeledClip) error {
	if len(e.Members) == 0 {
		return errors.New("core: ensemble has no members")
	}
	for i, m := range e.Members {
		if err := m.Fit(train); err != nil {
			return fmt.Errorf("core: ensemble member %d (%s): %w", i, m.Name(), err)
		}
	}
	e.fitted = true
	return nil
}

// Score implements Detector: the fraction of members voting hotspot.
func (e *Ensemble) Score(clip layout.Clip) (float64, error) {
	return e.ScoreCtx(context.Background(), clip)
}

// ScoreCtx implements CtxScorer: each member scores through its own
// span-attributing path, so a traced ensemble shows every member's
// stages.
func (e *Ensemble) ScoreCtx(ctx context.Context, clip layout.Clip) (float64, error) {
	if !e.fitted {
		return 0, errNotFitted
	}
	votes := 0
	for _, m := range e.Members {
		s, err := ScoreClipCtx(ctx, m, clip)
		if err != nil {
			return 0, err
		}
		if s >= m.Threshold() {
			votes++
		}
	}
	return float64(votes) / float64(len(e.Members)), nil
}

// Threshold implements Detector.
func (e *Ensemble) Threshold() float64 {
	if e.Vote <= 0 {
		return 0.5
	}
	return e.Vote
}
