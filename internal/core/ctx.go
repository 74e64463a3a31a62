// Context-aware scoring: the one body behind every score. A detector
// that scores through features implements ScoreCtx, which decomposes a
// scored clip into "raster" + "features" spans (via features.ExtractCtx)
// followed by an "inference" span, exactly the per-stage ODST breakdown
// the tracer exports as hotspot_stage_seconds. Its plain Score, like
// every other plain method with a Ctx twin (ScoreBatch, Fit), is the
// twin under context.Background(): untraced callers run the same code
// and pay only the nil-span fast path.

package core

import (
	"context"
	"fmt"

	"github.com/golitho/hsd/internal/features"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/tensor"
	"github.com/golitho/hsd/internal/trace"
)

// CtxScorer is implemented by detectors that attribute scoring stages
// (raster, features, inference) to trace spans.
type CtxScorer interface {
	// ScoreCtx is Score with stage spans on the context's trace.
	ScoreCtx(ctx context.Context, clip layout.Clip) (float64, error)
}

// CtxBatchScorer is implemented by detectors with a vectorized scoring
// path. ScoreBatchCtx returns one score per clip, in input order,
// identical to what Score would return for each clip alone, under the
// same concurrency contract as Detector.Score.
type CtxBatchScorer interface {
	ScoreBatchCtx(ctx context.Context, clips []layout.Clip) ([]float64, error)
}

// CtxFitter is implemented by detectors whose training observes context
// cancellation (halting with nn.ErrInterrupted after cutting a final
// checkpoint) and attributes checkpoint work to train.checkpoint spans.
type CtxFitter interface {
	// FitCtx is Fit with cooperative interruption.
	FitCtx(ctx context.Context, train []LabeledClip) error
}

// FitClipsCtx trains through the detector's context-aware path when it
// has one, falling back to plain Fit.
func FitClipsCtx(ctx context.Context, d Detector, train []LabeledClip) error {
	if cf, ok := d.(CtxFitter); ok {
		return cf.FitCtx(ctx, train)
	}
	return d.Fit(train)
}

// ScoreClipCtx scores one clip through the detector's span-attributing
// path when it has one, falling back to plain Score.
func ScoreClipCtx(ctx context.Context, d Detector, clip layout.Clip) (float64, error) {
	if cs, ok := d.(CtxScorer); ok {
		return cs.ScoreCtx(ctx, clip)
	}
	return d.Score(clip)
}

// ScoreClipsCtx scores every clip, in order: through the vectorized
// CtxBatchScorer when the detector has one, else clip by clip.
func ScoreClipsCtx(ctx context.Context, d Detector, clips []layout.Clip) ([]float64, error) {
	if cbs, ok := d.(CtxBatchScorer); ok {
		return cbs.ScoreBatchCtx(ctx, clips)
	}
	out := make([]float64, len(clips))
	for i, clip := range clips {
		s, err := ScoreClipCtx(ctx, d, clip)
		if err != nil {
			return nil, fmt.Errorf("core: score clip %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// scoreFeatures is how a feature-based detector turns a clip into a
// score: extraction under ExtractCtx (one "raster" + "features" span
// pair per extractor), then scoreVector.
func scoreFeatures(ctx context.Context, d Detector, ex features.Extractor, scale *scaler,
	clip layout.Clip, decide func(v []float64) float64) (float64, error) {
	v, err := features.ExtractCtx(ctx, ex, clip)
	if err != nil {
		return 0, err
	}
	return scoreVector(ctx, d, scale, v, decide), nil
}

// scoreVector is the half of a score after extraction: standardization
// and the fitted decision function under an "inference" span.
func scoreVector(ctx context.Context, d Detector, scale *scaler, v []float64, decide func(v []float64) float64) float64 {
	_, sp := trace.Start(ctx, "inference")
	if sp != nil { // the name is built only for a recording trace
		sp.SetAttr("detector", d.Name())
	}
	s := decide(scale.apply(v))
	sp.End()
	return s
}

var (
	_ CtxScorer      = (*FeatureDetector)(nil)
	_ CtxScorer      = (*NeuralDetector)(nil)
	_ CtxScorer      = (*Ensemble)(nil)
	_ CtxBatchScorer = (*NeuralDetector)(nil)
	_ CtxFitter      = (*NeuralDetector)(nil)
)

// ScoreCtx implements CtxScorer.
func (d *FeatureDetector) ScoreCtx(ctx context.Context, clip layout.Clip) (float64, error) {
	if d.decide == nil {
		return 0, errNotFitted
	}
	return scoreFeatures(ctx, d, d.Ex, d.scale, clip, d.decide)
}

// ScoreCtx implements CtxScorer. It does not mutate the detector: the
// forward pass runs on a pooled arena (nn.Score), so concurrent calls on
// one detector are safe.
func (d *NeuralDetector) ScoreCtx(ctx context.Context, clip layout.Clip) (float64, error) {
	if d.net == nil {
		return 0, errNotFitted
	}
	return scoreFeatures(ctx, d, d.Ex, d.scale, clip, d.predict)
}

// ScoreVectorCtx is ScoreCtx for a caller that already holds the clip's
// feature vector, d.Ex's bits for it: the scan farm, which shares the
// overlapping parts of neighbouring windows' tensors. v is read during
// the call and not kept.
func (d *NeuralDetector) ScoreVectorCtx(ctx context.Context, v []float64) (float64, error) {
	if d.net == nil {
		return 0, errNotFitted
	}
	return scoreVector(ctx, d, d.scale, v, d.predict), nil
}

func (d *NeuralDetector) predict(v []float64) float64 { return nn.Score(d.net, v) }

// ScoreBatchCtx implements CtxBatchScorer: per-clip extraction spans,
// then the batched forward pass under nn.PredictBatchCtx (arena and
// matmul stage spans), both sharded over tensor.Default. Scores are
// bit-identical to per-clip ScoreCtx calls, and the path is read-only
// on the network, so it is safe for concurrent use.
func (d *NeuralDetector) ScoreBatchCtx(ctx context.Context, clips []layout.Clip) ([]float64, error) {
	if d.net == nil {
		return nil, errNotFitted
	}
	// Extraction is sharded over the kernel pool like the forward pass
	// after it: extractors share nothing but pooled scratch, and every
	// clip writes its own slot. A shard stops at its first failure, so
	// the lowest failing index overall is always reached and reported.
	xs := make([][]float64, len(clips))
	errs := make([]error, len(clips))
	if err := tensor.Default().RunCtx(ctx, len(clips), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v, err := features.ExtractCtx(ctx, d.Ex, clips[i])
			if err != nil {
				errs[i] = err
				return
			}
			xs[i] = d.scale.apply(v)
		}
	}); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: extract clip %d: %w", i, err)
		}
	}
	return nn.PredictBatchCtx(ctx, d.net, xs, 0)
}
