package nn

import (
	"fmt"
	"math"

	"github.com/golitho/hsd/internal/tensor"
)

// BatchNorm is per-feature batch normalization with learned scale and
// shift. Training batches update running statistics used at inference.
type BatchNorm struct {
	Dim      int
	Eps      float64
	Momentum float64 // running-stat update rate, default 0.1

	Gamma, Beta []float64
	// Running statistics for inference.
	RunMean, RunVar []float64

	gGamma, gBeta []float64
	// Per-batch caches.
	xhat   *tensor.Matrix
	invStd []float64
	xmu    *tensor.Matrix
}

var _ Layer = (*BatchNorm)(nil)

// NewBatchNorm constructs a batch-norm layer over vectors of width dim.
func NewBatchNorm(dim int) *BatchNorm {
	bn := &BatchNorm{
		Dim: dim, Eps: 1e-5, Momentum: 0.1,
		Gamma: make([]float64, dim), Beta: make([]float64, dim),
		RunMean: make([]float64, dim), RunVar: make([]float64, dim),
		gGamma: make([]float64, dim), gBeta: make([]float64, dim),
	}
	for i := range bn.Gamma {
		bn.Gamma[i] = 1
		bn.RunVar[i] = 1
	}
	return bn
}

// Name implements Layer.
func (b *BatchNorm) Name() string { return fmt.Sprintf("batchnorm(%d)", b.Dim) }

// OutDim implements Layer.
func (b *BatchNorm) OutDim() int { return b.Dim }

// Forward implements Layer.
func (b *BatchNorm) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	checkCols(b, b.Dim, x.Cols)
	out := tensor.NewMatrix(x.Rows, x.Cols)
	if !train {
		for i := 0; i < x.Rows; i++ {
			src, dst := x.Row(i), out.Row(i)
			for j := range src {
				xhat := (src[j] - b.RunMean[j]) / math.Sqrt(b.RunVar[j]+b.Eps)
				dst[j] = b.Gamma[j]*xhat + b.Beta[j]
			}
		}
		b.xhat = nil
		return out
	}
	n := float64(x.Rows)
	mean := make([]float64, b.Dim)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= n
	}
	variance := make([]float64, b.Dim)
	b.xmu = tensor.NewMatrix(x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		xmu := b.xmu.Row(i)
		for j, v := range row {
			d := v - mean[j]
			xmu[j] = d
			variance[j] += d * d
		}
	}
	b.invStd = make([]float64, b.Dim)
	for j := range variance {
		variance[j] /= n
		b.invStd[j] = 1 / math.Sqrt(variance[j]+b.Eps)
	}
	b.xhat = tensor.NewMatrix(x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		xmu := b.xmu.Row(i)
		xh := b.xhat.Row(i)
		dst := out.Row(i)
		for j := range xmu {
			xh[j] = xmu[j] * b.invStd[j]
			dst[j] = b.Gamma[j]*xh[j] + b.Beta[j]
		}
	}
	m := b.Momentum
	for j := range mean {
		b.RunMean[j] = (1-m)*b.RunMean[j] + m*mean[j]
		b.RunVar[j] = (1-m)*b.RunVar[j] + m*variance[j]
	}
	return out
}

// Backward implements Layer.
func (b *BatchNorm) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if b.xhat == nil {
		panic("nn: BatchNorm.Backward without training Forward")
	}
	n := float64(grad.Rows)
	// dgamma, dbeta, and the two reduction terms of the dx formula.
	sumDy := make([]float64, b.Dim)
	sumDyXhat := make([]float64, b.Dim)
	for i := 0; i < grad.Rows; i++ {
		g := grad.Row(i)
		xh := b.xhat.Row(i)
		for j := range g {
			sumDy[j] += g[j]
			sumDyXhat[j] += g[j] * xh[j]
		}
	}
	for j := 0; j < b.Dim; j++ {
		b.gGamma[j] += sumDyXhat[j]
		b.gBeta[j] += sumDy[j]
	}
	dx := tensor.NewMatrix(grad.Rows, grad.Cols)
	for i := 0; i < grad.Rows; i++ {
		g := grad.Row(i)
		xh := b.xhat.Row(i)
		d := dx.Row(i)
		for j := range g {
			// dx = gamma*invStd/N * (N*dy - sum(dy) - xhat*sum(dy*xhat))
			d[j] = b.Gamma[j] * b.invStd[j] / n *
				(n*g[j] - sumDy[j] - xh[j]*sumDyXhat[j])
		}
	}
	return dx
}

// Params implements Layer.
func (b *BatchNorm) Params() []*Param {
	gm, _ := tensor.FromSlice(1, b.Dim, b.Gamma)
	gg, _ := tensor.FromSlice(1, b.Dim, b.gGamma)
	bm, _ := tensor.FromSlice(1, b.Dim, b.Beta)
	gb, _ := tensor.FromSlice(1, b.Dim, b.gBeta)
	return []*Param{{W: gm, G: gg}, {W: bm, G: gb}}
}

// Clone implements Layer.
func (b *BatchNorm) Clone() Layer {
	out := NewBatchNorm(b.Dim)
	out.Eps, out.Momentum = b.Eps, b.Momentum
	copy(out.Gamma, b.Gamma)
	copy(out.Beta, b.Beta)
	copy(out.RunMean, b.RunMean)
	copy(out.RunVar, b.RunVar)
	return out
}
