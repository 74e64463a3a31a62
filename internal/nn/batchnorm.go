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
	tr            *bnScratch
}

// bnScratch is a BatchNorm's training scratch (see scratch.go): the
// batch statistics and normalized activations Backward reads, and the
// reduction terms of its dx formula.
type bnScratch struct {
	out, dx, xmu, xhat *tensor.Matrix
	mean, variance     []float64
	invStd             []float64
	sumDy, sumDyXhat   []float64
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

func (b *BatchNorm) dropScratch() { b.tr = nil }

// Forward implements Layer.
func (b *BatchNorm) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	checkCols(b, b.Dim, x.Cols)
	if !train {
		out := tensor.NewMatrix(x.Rows, x.Cols)
		for i := 0; i < x.Rows; i++ {
			src, dst := x.Row(i), out.Row(i)
			for j := range src {
				xhat := (src[j] - b.RunMean[j]) / math.Sqrt(b.RunVar[j]+b.Eps)
				dst[j] = b.Gamma[j]*xhat + b.Beta[j]
			}
		}
		return out
	}
	if b.tr == nil {
		b.tr = &bnScratch{}
	}
	s := b.tr
	s.out = sized(s.out, x.Rows, x.Cols)
	s.xmu = sized(s.xmu, x.Rows, x.Cols)
	s.xhat = sized(s.xhat, x.Rows, x.Cols)
	s.mean = grow(s.mean, b.Dim)
	s.variance = grow(s.variance, b.Dim)
	s.invStd = grow(s.invStd, b.Dim)
	mean, variance := s.mean, s.variance
	clear(mean)
	clear(variance)
	n := float64(x.Rows)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= n
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		xmu := s.xmu.Row(i)
		for j, v := range row {
			d := v - mean[j]
			xmu[j] = d
			variance[j] += d * d
		}
	}
	for j := range variance {
		variance[j] /= n
		s.invStd[j] = 1 / math.Sqrt(variance[j]+b.Eps)
	}
	for i := 0; i < x.Rows; i++ {
		xmu := s.xmu.Row(i)
		xh := s.xhat.Row(i)
		dst := s.out.Row(i)
		for j := range xmu {
			xh[j] = xmu[j] * s.invStd[j]
			dst[j] = b.Gamma[j]*xh[j] + b.Beta[j]
		}
	}
	m := b.Momentum
	for j := range mean {
		b.RunMean[j] = (1-m)*b.RunMean[j] + m*mean[j]
		b.RunVar[j] = (1-m)*b.RunVar[j] + m*variance[j]
	}
	return s.out
}

// Backward implements Layer.
func (b *BatchNorm) Backward(grad *tensor.Matrix) *tensor.Matrix {
	s := b.tr
	if s == nil || s.xhat.Rows != grad.Rows {
		panic("nn: BatchNorm.Backward without training Forward")
	}
	n := float64(grad.Rows)
	// dgamma, dbeta, and the two reduction terms of the dx formula.
	s.sumDy = grow(s.sumDy, b.Dim)
	s.sumDyXhat = grow(s.sumDyXhat, b.Dim)
	sumDy, sumDyXhat := s.sumDy, s.sumDyXhat
	clear(sumDy)
	clear(sumDyXhat)
	for i := 0; i < grad.Rows; i++ {
		g := grad.Row(i)
		xh := s.xhat.Row(i)
		for j := range g {
			sumDy[j] += g[j]
			sumDyXhat[j] += g[j] * xh[j]
		}
	}
	for j := 0; j < b.Dim; j++ {
		b.gGamma[j] += sumDyXhat[j]
		b.gBeta[j] += sumDy[j]
	}
	s.dx = sized(s.dx, grad.Rows, grad.Cols)
	for i := 0; i < grad.Rows; i++ {
		g := grad.Row(i)
		xh := s.xhat.Row(i)
		d := s.dx.Row(i)
		for j := range g {
			// dx = gamma*invStd/N * (N*dy - sum(dy) - xhat*sum(dy*xhat))
			d[j] = b.Gamma[j] * s.invStd[j] / n *
				(n*g[j] - sumDy[j] - xh[j]*sumDyXhat[j])
		}
	}
	return s.dx
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
