package nn

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/golitho/hsd/internal/tensor"
)

// Dense is a fully connected layer: y = x*W + b.
type Dense struct {
	In, Out int
	W       *tensor.Matrix // In x Out
	B       []float64

	gw *tensor.Matrix
	gb []float64
	tr *denseScratch
}

// denseScratch is a Dense layer's training scratch (see scratch.go). x
// is the last training Forward's input, borrowed from the caller; xT
// and gw are its transpose and this batch's xᵀ·grad; tb is where
// grad·Wᵀ keeps its transpose (tensor.MatMulTransBInto).
type denseScratch struct {
	x               *tensor.Matrix
	out, dx, xT, gw *tensor.Matrix
	tb              []float64
}

var _ Layer = (*Dense)(nil)

// NewDense constructs a Dense layer with zeroed weights; call Network.Init
// (or Trainer) to randomize.
func NewDense(in, out int) *Dense {
	return &Dense{
		In: in, Out: out,
		W:  tensor.NewMatrix(in, out),
		B:  make([]float64, out),
		gw: tensor.NewMatrix(in, out),
		gb: make([]float64, out),
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense(%dx%d)", d.In, d.Out) }

// OutDim implements Layer.
func (d *Dense) OutDim() int { return d.Out }

func (d *Dense) init(rng *rand.Rand) {
	d.W.Randomize(rng, math.Sqrt(2/float64(d.In)))
	for i := range d.B {
		d.B[i] = 0
	}
}

func (d *Dense) dropScratch() { d.tr = nil }

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Matrix) *tensor.Matrix {
	checkCols(d, d.In, x.Cols)
	if d.tr == nil {
		d.tr = &denseScratch{}
	}
	d.tr.x = x
	d.tr.out = sized(d.tr.out, x.Rows, d.Out)
	out := d.tr.out
	tensor.ParallelMatMulInto(out, x, d.W)
	if err := out.AddRowVector(d.B); err != nil {
		panic(err) // impossible: dimensions fixed at construction
	}
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Matrix) *tensor.Matrix { return d.backward(grad, true) }

// backwardParams implements paramGrader.
func (d *Dense) backwardParams(grad *tensor.Matrix) { d.backward(grad, false) }

func (d *Dense) backward(grad *tensor.Matrix, needDX bool) *tensor.Matrix {
	s := d.tr
	if s == nil || s.x.Rows != grad.Rows {
		panic("nn: Dense.Backward without training Forward")
	}
	// dW += x^T * grad
	s.xT = transposeInto(s.xT, s.x)
	s.gw = sized(s.gw, d.In, d.Out)
	tensor.ParallelMatMulInto(s.gw, s.xT, grad)
	if err := tensor.Axpy(1, s.gw, d.gw); err != nil {
		panic(err)
	}
	// db += column sums of grad
	for i := 0; i < grad.Rows; i++ {
		row := grad.Row(i)
		for j := range row {
			d.gb[j] += row[j]
		}
	}
	if !needDX {
		return nil
	}
	// dX = grad * W^T
	s.dx = sized(s.dx, grad.Rows, d.In)
	s.tb = tensor.MatMulTransBInto(s.dx, grad, d.W, s.tb)
	return s.dx
}

// Params implements Layer.
func (d *Dense) Params() []*Param {
	gbm, _ := tensor.FromSlice(1, d.Out, d.gb)
	bm, _ := tensor.FromSlice(1, d.Out, d.B)
	return []*Param{{W: d.W, G: d.gw}, {W: bm, G: gbm}}
}

// Clone implements Layer.
func (d *Dense) Clone() Layer {
	out := NewDense(d.In, d.Out)
	copy(out.W.Data, d.W.Data)
	copy(out.B, d.B)
	return out
}

// ReLU is the rectified linear activation.
type ReLU struct {
	Dim int
	tr  *maskScratch
}

// maskScratch is the training scratch of the element-wise layers (see
// scratch.go): mask marks the elements whose gradient passes.
type maskScratch struct {
	out, dx *tensor.Matrix
	mask    []bool
}

var _ Layer = (*ReLU)(nil)

// NewReLU constructs a ReLU over vectors of the given width.
func NewReLU(dim int) *ReLU { return &ReLU{Dim: dim} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// OutDim implements Layer.
func (r *ReLU) OutDim() int { return r.Dim }

func (r *ReLU) dropScratch() { r.tr = nil }

// reluInto writes the inference ReLU of src over dst: v when v > 0, else
// +0, so NaN and -0 come out as +0 like everything negative. It is the
// one rule of every inference pass (forwardInfer, and the fused
// forwardInferReLUPool, which must give its bits on any input). The
// training pass below has its own, !(v < 0): it decides which gradients
// pass at pre-activations of exactly zero, and the trained-bytes goldens
// pin it.
func reluInto(dst, src []float64) {
	for i, v := range src {
		if !(v > 0) {
			v = 0
		}
		dst[i] = v
	}
}

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	checkCols(r, r.Dim, x.Cols)
	if r.tr == nil {
		r.tr = &maskScratch{}
	}
	s := r.tr
	s.out = sized(s.out, x.Rows, x.Cols)
	s.mask = grow(s.mask, len(x.Data))
	forRows(x.Rows, x.Cols, func(r int) {
		lo, hi := r*x.Cols, (r+1)*x.Cols
		in, mask, out := x.Data[lo:hi], s.mask[lo:hi], s.out.Data[lo:hi]
		for i, v := range in {
			pass := !(v < 0)
			mask[i] = pass
			if !pass {
				v = 0
			}
			out[i] = v
		}
	})
	return s.out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Matrix) *tensor.Matrix {
	s := r.tr
	if s == nil || len(s.mask) != len(grad.Data) {
		panic("nn: ReLU.Backward without training Forward")
	}
	s.dx = sized(s.dx, grad.Rows, grad.Cols)
	forRows(grad.Rows, grad.Cols, func(r int) {
		lo, hi := r*grad.Cols, (r+1)*grad.Cols
		in, mask, dx := grad.Data[lo:hi], s.mask[lo:hi], s.dx.Data[lo:hi]
		for i, g := range in {
			if !mask[i] {
				g = 0
			}
			dx[i] = g
		}
	})
	return s.dx
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Clone implements Layer.
func (r *ReLU) Clone() Layer { return NewReLU(r.Dim) }

// Dropout zeroes activations with probability P during training and
// rescales the survivors (inverted dropout).
type Dropout struct {
	Dim int
	P   float64

	// seed and draws make the RNG state capturable without mutating it:
	// the stream is fully determined by the construction seed and the
	// number of Float64 draws consumed, so a saved network records (seed,
	// draws) and a loaded layer replays the discarded prefix. The
	// replay is exact (math/rand is deterministic) and waits for the
	// first training Forward, which builds rng: a layer that is loaded
	// only to score never pays for it.
	seed  int64
	draws int64
	rng   *rand.Rand

	tr *maskScratch
}

var _ Layer = (*Dropout)(nil)

// NewDropout constructs a dropout layer; seed fixes its randomness.
func NewDropout(dim int, p float64, seed int64) *Dropout {
	return &Dropout{Dim: dim, P: p, seed: seed}
}

// Name implements Layer.
func (d *Dropout) Name() string { return fmt.Sprintf("dropout(%.2f)", d.P) }

// OutDim implements Layer.
func (d *Dropout) OutDim() int { return d.Dim }

func (d *Dropout) dropScratch() { d.tr = nil }

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Matrix) *tensor.Matrix {
	checkCols(d, d.Dim, x.Cols)
	if d.P <= 0 {
		return x
	}
	if d.tr == nil {
		d.tr = &maskScratch{}
	}
	if d.rng == nil {
		d.rng = rand.New(rand.NewSource(d.seed))
		for i := int64(0); i < d.draws; i++ {
			d.rng.Float64()
		}
	}
	s := d.tr
	s.out = sized(s.out, x.Rows, x.Cols)
	s.mask = grow(s.mask, len(x.Data))
	d.draws += int64(len(x.Data))
	scale := 1 / (1 - d.P)
	for i, v := range x.Data {
		keep := !(d.rng.Float64() < d.P)
		s.mask[i] = keep
		if keep {
			s.out.Data[i] = v * scale
		} else {
			s.out.Data[i] = 0
		}
	}
	return s.out
}

// Backward implements Layer. A layer that drops nothing passes the
// gradient through, as its Forward passed the activations.
func (d *Dropout) Backward(grad *tensor.Matrix) *tensor.Matrix {
	s := d.tr
	if d.P <= 0 || s == nil {
		return grad
	}
	s.dx = sized(s.dx, grad.Rows, grad.Cols)
	scale := 1 / (1 - d.P)
	for i, g := range grad.Data {
		if s.mask[i] {
			s.dx.Data[i] = g * scale
		} else {
			s.dx.Data[i] = 0
		}
	}
	return s.dx
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// Clone implements Layer. The clone's stream is derived from the
// source's (seed, draws) state instead of drawing from it, so cloning
// never perturbs a live training run; clones are used for inference,
// where dropout is inactive anyway.
func (d *Dropout) Clone() Layer {
	return NewDropout(d.Dim, d.P, d.seed^0x5E3779B97F4A7C15+d.draws)
}
