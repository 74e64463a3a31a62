// Context-aware scoring: Detector.Score takes the context, and a
// detector that scores through features decomposes a scored clip into
// "raster" + "features" spans (Extractor.ExtractCtx) followed by an
// "inference" span, exactly the per-stage ODST breakdown the tracer
// exports as hotspot_stage_seconds. An untraced caller passes
// context.Background() and pays only the nil-span fast path. A wrapper
// that embeds a Detector keeps the spans of the one it wraps.
//
// Training keeps a plain Fit beside the optional FitCtx (CtxFitter):
// the benchmark fits detectors through Detector.Fit, so that method's
// signature is pinned.

package core

import (
	"context"

	"github.com/golitho/hsd/internal/features"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/tensor"
	"github.com/golitho/hsd/internal/trace"
)

// CtxFitter is implemented by detectors whose training observes context
// cancellation and attributes each epoch to a train.epoch span. A
// cancelled fit returns an error wrapping ctx.Err() and leaves no model:
// re-running the fit, which is deterministic, is how it is finished.
type CtxFitter interface {
	// FitCtx is Fit with cooperative cancellation.
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

// ScoreClipCtx is d.Score(ctx, clip); the benchmark calls it by this
// name.
func ScoreClipCtx(ctx context.Context, d Detector, clip layout.Clip) (float64, error) {
	return d.Score(ctx, clip)
}

// scoreFeatures is how a feature-based detector turns a clip into a
// score: extraction under ExtractCtx (one "raster" + "features" span
// pair per rasterizing extractor), then scoreVector.
func scoreFeatures(ctx context.Context, d Detector, ex features.Extractor, scale *scaler,
	clip layout.Clip, decide func(v []float64) float64) (float64, error) {
	v, err := ex.ExtractCtx(ctx, clip)
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

var _ CtxFitter = (*NeuralDetector)(nil)

// Score implements Detector.
func (d *FeatureDetector) Score(ctx context.Context, clip layout.Clip) (float64, error) {
	if d.decide == nil {
		return 0, errNotFitted
	}
	return scoreFeatures(ctx, d, d.Ex, d.scale, clip, d.decide)
}

// Score implements Detector. It does not mutate the detector: the
// forward pass runs on a pooled arena (nn.Score), so concurrent calls on
// one detector are safe.
func (d *NeuralDetector) Score(ctx context.Context, clip layout.Clip) (float64, error) {
	if d.net == nil {
		return 0, errNotFitted
	}
	return scoreFeatures(ctx, d, d.Ex, d.scale, clip, d.predict)
}

func (d *NeuralDetector) predict(v []float64) float64 { return nn.Score(d.net, v) }

// Conv1 returns the first convolution of d's network when a window can
// be scored from that layer's sums (ScoreConv1): d scores its DCT
// tensor as it stands (NoScale, so no per-position standardisation sits
// between the tensor and the layer), and the network opens with a
// Conv2D, a ReLU and a 2x2 pool (nn.FirstConv) whose conv is same-padded
// over the whole tensor, one input channel a coefficient and one
// position a block. It returns nil otherwise, and before Fit.
func (d *NeuralDetector) Conv1() *nn.Conv2D {
	ex, ok := d.Ex.(*features.DCT)
	if !ok || d.net == nil || d.scale == nil || d.scale.mean != nil {
		return nil
	}
	c := d.net.FirstConv()
	if c == nil || c.InC != ex.Coefs || c.InH != ex.Blocks || c.InW != ex.Blocks ||
		c.OutH() != c.InH || c.OutW() != c.InW {
		return nil
	}
	return c
}

// Conv1Window is a window that ScoreConv1 scores from the sums of the
// detector's first convolution (Conv1), some of which the caller
// already holds.
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

// ScoreConv1 is Score for a caller that holds the window's feature
// tensor and, in part, its first-layer sums: the sums w lacks, then the
// rest of the network, under one "inference" span. d must have a Conv1;
// the score has the bits Score gives the clip the window was built
// from.
func (d *NeuralDetector) ScoreConv1(ctx context.Context, w Conv1Window) float64 {
	_, sp := trace.Start(ctx, "inference")
	if sp != nil {
		sp.SetAttr("detector", d.Name())
	}
	c := d.net.FirstConv()
	stride, width := c.InH+2*c.Pad, c.OutH()
	c.SumRows(w.Sums, w.Plane, w.Taps, stride, width, 0, w.Lo)
	c.SumRows(w.Sums, w.Plane, w.Taps, stride, width, w.Hi, c.OutW())
	s := nn.ScoreConvSums(d.net, w.Sums)
	sp.End()
	return s
}
