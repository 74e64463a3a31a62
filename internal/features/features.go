// Package features implements the layout feature representations surveyed
// for hotspot detection:
//
//   - density grids, the classic shallow-learning feature (layout area
//     density over a coarse grid);
//   - concentric-circle area sampling (CCAS), the rotation-tolerant
//     sampling used by SVM/AdaBoost detectors;
//   - DCT feature tensors, the compressed spectral representation feeding
//     convolutional networks (block DCT + zigzag truncation).
//
// All extractors rasterize the clip window once and derive features from
// the grayscale coverage image, preserving the spatial relationships of
// the original pattern.
package features

import (
	"context"
	"fmt"
	"math"
	"sync"

	"github.com/golitho/hsd/internal/fft"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/raster"
	"github.com/golitho/hsd/internal/trace"
)

// Extractor turns a layout clip into a fixed-length feature vector.
type Extractor interface {
	// Name identifies the extractor in reports.
	Name() string
	// Dim is the length of the produced vector.
	Dim() int
	// Extract computes the features of one clip.
	Extract(clip layout.Clip) ([]float64, error)
}

// CtxExtractor is implemented by extractors that attribute their work
// to trace spans: a "raster" span for clip rasterization and a
// "features" span for the transform that follows.
type CtxExtractor interface {
	Extractor
	// ExtractCtx computes the features of one clip, emitting stage
	// spans on the context's trace.
	ExtractCtx(ctx context.Context, clip layout.Clip) ([]float64, error)
}

// ExtractCtx extracts features with span attribution when ex supports
// it, falling back to plain Extract otherwise.
func ExtractCtx(ctx context.Context, ex Extractor, clip layout.Clip) ([]float64, error) {
	if cx, ok := ex.(CtxExtractor); ok {
		return cx.ExtractCtx(ctx, clip)
	}
	return ex.Extract(clip)
}

// scratch is what one extraction needs and no caller ever sees: the
// clip's raster and the block DCT's two products. Extractors borrow
// one from scratchPool for the length of an Extract call, so the raster
// of a window (131 KB at the zoo's pitch) is reused instead of allocated.
// Nothing the extractors return may alias it.
type scratch struct {
	im  raster.Image
	dct []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// startSpan opens a stage span labelled with the extractor. The label is
// a Sprintf, so it is built only when the trace is recording.
func startSpan(ctx context.Context, stage string, ex Extractor) *trace.Span {
	_, sp := trace.Start(ctx, stage)
	if sp != nil {
		sp.SetAttr("extractor", ex.Name())
	}
	return sp
}

// imageExtractor is an extractor whose features are a function of the
// clip's raster alone, which is what lets the raster live in the pool.
type imageExtractor interface {
	Extractor
	// fromImage derives the features from sc.im. It may use sc's other
	// buffers; nothing it returns may alias sc.
	fromImage(sc *scratch) ([]float64, error)
}

// extractPooled renders the clip into pooled scratch under a "raster"
// span, runs ex.fromImage under a "features" span, and returns the
// scratch to the pool. kind labels a rasterization error; pixelNM <= 0
// means the default pitch of 8.
func extractPooled(ctx context.Context, ex imageExtractor, kind string, clip layout.Clip, pixelNM int) ([]float64, error) {
	sc := scratchPool.Get().(*scratch)
	// RasterizeInto sizes and clears the image for whoever borrows it
	// next, so it can go back in any state.
	defer scratchPool.Put(sc)
	if err := rasterize(ctx, sc, ex, kind, clip.Window, clip.Shapes, pixelNM); err != nil {
		return nil, err
	}
	sp := startSpan(ctx, "features", ex)
	defer sp.End()
	return ex.fromImage(sc)
}

// rasterize renders the part of shapes over window into sc.im under a
// "raster" span: a clip's whole window, or one tile of it.
func rasterize(ctx context.Context, sc *scratch, ex Extractor, kind string, window geom.Rect, shapes []geom.Rect, pixelNM int) error {
	sp := startSpan(ctx, "raster", ex)
	err := raster.RasterizeInto(&sc.im, raster.Config{Window: window, PixelNM: pitch(pixelNM)}, shapes)
	sp.SetError(err)
	sp.End()
	if err != nil {
		return fmt.Errorf("features: %s: %w", kind, err)
	}
	return nil
}

// pitch is an extractor's rasterization pitch: PixelNM, or the default
// of 8 when that is unset.
func pitch(pixelNM int) int {
	if pixelNM <= 0 {
		return 8
	}
	return pixelNM
}

// Density is the density-grid extractor: the clip is divided into
// Grid x Grid cells and each feature is the drawn-area fraction of a cell.
type Density struct {
	// Grid is the number of cells per side.
	Grid int
	// PixelNM is the rasterization pitch (default 8).
	PixelNM int
}

var _ CtxExtractor = (*Density)(nil)

// Name implements Extractor.
func (d *Density) Name() string { return fmt.Sprintf("density%d", d.Grid) }

// Dim implements Extractor.
func (d *Density) Dim() int { return d.Grid * d.Grid }

// Extract implements Extractor.
func (d *Density) Extract(clip layout.Clip) ([]float64, error) {
	return d.ExtractCtx(context.Background(), clip)
}

// ExtractCtx implements CtxExtractor.
func (d *Density) ExtractCtx(ctx context.Context, clip layout.Clip) ([]float64, error) {
	if d.Grid <= 0 {
		return nil, fmt.Errorf("features: density grid must be positive, got %d", d.Grid)
	}
	return extractPooled(ctx, d, "density", clip, d.PixelNM)
}

func (d *Density) fromImage(sc *scratch) ([]float64, error) {
	im := &sc.im
	if im.W%d.Grid != 0 || im.H%d.Grid != 0 {
		return nil, fmt.Errorf("features: image %dx%d not divisible into %d cells",
			im.W, im.H, d.Grid)
	}
	cw, ch := im.W/d.Grid, im.H/d.Grid
	out := make([]float64, d.Grid*d.Grid)
	inv := 1 / float64(cw*ch)
	for gy := 0; gy < d.Grid; gy++ {
		for gx := 0; gx < d.Grid; gx++ {
			var s float64
			for y := gy * ch; y < (gy+1)*ch; y++ {
				row := y * im.W
				for x := gx * cw; x < (gx+1)*cw; x++ {
					s += im.Pix[row+x]
				}
			}
			out[gy*d.Grid+gx] = s * inv
		}
	}
	return out, nil
}

// CCAS is concentric-circle area sampling: coverage is averaged over
// (ring, sector) bins of concentric annuli centred on the clip core.
type CCAS struct {
	// Rings is the number of annuli between the centre and the window edge.
	Rings int
	// Sectors is the angular resolution per ring.
	Sectors int
	// PixelNM is the rasterization pitch (default 8).
	PixelNM int
}

var _ CtxExtractor = (*CCAS)(nil)

// Name implements Extractor.
func (c *CCAS) Name() string { return fmt.Sprintf("ccas%dx%d", c.Rings, c.Sectors) }

// Dim implements Extractor.
func (c *CCAS) Dim() int { return c.Rings * c.Sectors }

// Extract implements Extractor.
func (c *CCAS) Extract(clip layout.Clip) ([]float64, error) {
	return c.ExtractCtx(context.Background(), clip)
}

// ExtractCtx implements CtxExtractor.
func (c *CCAS) ExtractCtx(ctx context.Context, clip layout.Clip) ([]float64, error) {
	if c.Rings <= 0 || c.Sectors <= 0 {
		return nil, fmt.Errorf("features: ccas needs positive rings/sectors, got %d/%d", c.Rings, c.Sectors)
	}
	return extractPooled(ctx, c, "ccas", clip, c.PixelNM)
}

func (c *CCAS) fromImage(sc *scratch) ([]float64, error) {
	im := &sc.im
	cx, cy := float64(im.W)/2, float64(im.H)/2
	maxR := math.Min(cx, cy)
	sums := make([]float64, c.Rings*c.Sectors)
	counts := make([]int, c.Rings*c.Sectors)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			dx := float64(x) + 0.5 - cx
			dy := float64(y) + 0.5 - cy
			r := math.Sqrt(dx*dx + dy*dy)
			if r >= maxR {
				continue
			}
			ring := int(r / maxR * float64(c.Rings))
			if ring >= c.Rings {
				ring = c.Rings - 1
			}
			ang := math.Atan2(dy, dx) + math.Pi // [0, 2pi]
			sector := int(ang / (2 * math.Pi) * float64(c.Sectors))
			if sector >= c.Sectors {
				sector = c.Sectors - 1
			}
			idx := ring*c.Sectors + sector
			sums[idx] += im.Pix[y*im.W+x]
			counts[idx]++
		}
	}
	out := make([]float64, len(sums))
	for i := range sums {
		if counts[i] > 0 {
			out[i] = sums[i] / float64(counts[i])
		}
	}
	return out, nil
}

// DCT is the feature-tensor extractor: the clip image is divided into
// Blocks x Blocks sub-images, each transformed with an orthonormal 2-D
// DCT, and the first Coefs zigzag coefficients of every block are kept.
// The result is a Blocks x Blocks x Coefs tensor flattened
// channel-major: index = (coef*Blocks + by)*Blocks + bx, matching the
// (C, H, W) layout convolutional networks consume.
type DCT struct {
	// Blocks is the number of sub-blocks per side.
	Blocks int
	// Coefs is the number of retained zigzag DCT coefficients per block.
	Coefs int
	// PixelNM is the rasterization pitch (default 8).
	PixelNM int
}

var _ CtxExtractor = (*DCT)(nil)

// Name implements Extractor.
func (d *DCT) Name() string { return fmt.Sprintf("dct%dx%dx%d", d.Blocks, d.Blocks, d.Coefs) }

// Dim implements Extractor.
func (d *DCT) Dim() int { return d.Blocks * d.Blocks * d.Coefs }

// TensorShape returns the (channels, height, width) interpretation of the
// produced vector.
func (d *DCT) TensorShape() (c, h, w int) { return d.Coefs, d.Blocks, d.Blocks }

// Extract implements Extractor.
func (d *DCT) Extract(clip layout.Clip) ([]float64, error) {
	return d.ExtractCtx(context.Background(), clip)
}

// ExtractCtx implements CtxExtractor.
func (d *DCT) ExtractCtx(ctx context.Context, clip layout.Clip) ([]float64, error) {
	if d.Blocks <= 0 || d.Coefs <= 0 {
		return nil, fmt.Errorf("features: dct needs positive blocks/coefs, got %d/%d", d.Blocks, d.Coefs)
	}
	return extractPooled(ctx, d, "dct", clip, d.PixelNM)
}

func (d *DCT) fromImage(sc *scratch) ([]float64, error) {
	im := &sc.im
	if im.W != im.H || im.W%d.Blocks != 0 {
		return nil, fmt.Errorf("features: image %dx%d not divisible into %d blocks", im.W, im.H, d.Blocks)
	}
	out := make([]float64, d.Dim())
	if err := d.blocksInto(out, sc, im.W/d.Blocks); err != nil {
		return nil, err
	}
	return out, nil
}

// blocksInto transforms every bs x bs block of sc.im where it lies in
// the raster, computing only the zigzag prefix that is kept, and writes
// the coefficients to out coefficient-major (fft's ForwardBlocks layout):
// a window's tensor from its raster, or a tile's share of one from the
// tile's.
func (d *DCT) blocksInto(out []float64, sc *scratch, bs int) error {
	if d.Coefs > bs*bs {
		return fmt.Errorf("features: %d coefs exceed block size %d^2", d.Coefs, bs)
	}
	plan, err := fft.PlanDCT(bs)
	if err != nil {
		return fmt.Errorf("features: dct block: %w", err)
	}
	if sc.dct, err = plan.ForwardBlocks(out, sc.im.Pix, sc.im.W, sc.im.H, d.Coefs, sc.dct); err != nil {
		return fmt.Errorf("features: dct block: %w", err)
	}
	return nil
}

// MirrorClipX reflects a clip's geometry across the vertical centre line
// of its window. Used for hotspot minority-class augmentation: optical
// printability is mirror-symmetric, so labels are preserved.
func MirrorClipX(clip layout.Clip) layout.Clip {
	axisX2 := clip.Window.Min.X + clip.Window.Max.X // 2 * axis
	out := layout.Clip{Window: clip.Window, Core: mirrorRectX(clip.Core, axisX2)}
	out.Shapes = make([]geom.Rect, len(clip.Shapes))
	for i, s := range clip.Shapes {
		out.Shapes[i] = mirrorRectX(s, axisX2)
	}
	return out
}

// MirrorClipY reflects a clip's geometry across the horizontal centre line
// of its window.
func MirrorClipY(clip layout.Clip) layout.Clip {
	axisY2 := clip.Window.Min.Y + clip.Window.Max.Y
	out := layout.Clip{Window: clip.Window, Core: mirrorRectY(clip.Core, axisY2)}
	out.Shapes = make([]geom.Rect, len(clip.Shapes))
	for i, s := range clip.Shapes {
		out.Shapes[i] = mirrorRectY(s, axisY2)
	}
	return out
}

// Rotate90Clip rotates a square clip's geometry 90 degrees counter-
// clockwise about its window centre.
func Rotate90Clip(clip layout.Clip) layout.Clip {
	cx2 := clip.Window.Min.X + clip.Window.Max.X
	cy2 := clip.Window.Min.Y + clip.Window.Max.Y
	rot := func(r geom.Rect) geom.Rect {
		// Translate centre to origin (doubled coords), rotate, translate back.
		x0, y0 := 2*r.Min.X-cx2, 2*r.Min.Y-cy2
		x1, y1 := 2*r.Max.X-cx2, 2*r.Max.Y-cy2
		return geom.R((-y0+cx2)/2, (x0+cy2)/2, (-y1+cx2)/2, (x1+cy2)/2)
	}
	out := layout.Clip{Window: clip.Window, Core: rot(clip.Core)}
	out.Shapes = make([]geom.Rect, len(clip.Shapes))
	for i, s := range clip.Shapes {
		out.Shapes[i] = rot(s)
	}
	return out
}

func mirrorRectX(r geom.Rect, axisX2 int) geom.Rect {
	return geom.R(axisX2-r.Min.X, r.Min.Y, axisX2-r.Max.X, r.Max.Y)
}

func mirrorRectY(r geom.Rect, axisY2 int) geom.Rect {
	return geom.R(r.Min.X, axisY2-r.Min.Y, r.Max.X, axisY2-r.Max.Y)
}
