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

	gw   *tensor.Matrix
	gb   []float64
	last *tensor.Matrix // cached input
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

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	checkCols(d, d.In, x.Cols)
	out := tensor.NewMatrix(x.Rows, d.Out)
	tensor.MatMulInto(out, x, d.W)
	if err := out.AddRowVector(d.B); err != nil {
		panic(err) // impossible: dimensions fixed at construction
	}
	if train {
		d.last = x
	} else {
		d.last = nil
	}
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if d.last == nil {
		panic("nn: Dense.Backward without training Forward")
	}
	// dW += x^T * grad
	gw := tensor.NewMatrix(d.In, d.Out)
	tensor.MatMulInto(gw, d.last.Transpose(), grad)
	if err := tensor.Axpy(1, gw, d.gw); err != nil {
		panic(err)
	}
	// db += column sums of grad
	for i := 0; i < grad.Rows; i++ {
		row := grad.Row(i)
		for j := range row {
			d.gb[j] += row[j]
		}
	}
	// dX = grad * W^T
	dx := tensor.NewMatrix(grad.Rows, d.In)
	tensor.MatMulInto(dx, grad, d.W.Transpose())
	return dx
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
	Dim  int
	mask []bool
}

var _ Layer = (*ReLU)(nil)

// NewReLU constructs a ReLU over vectors of the given width.
func NewReLU(dim int) *ReLU { return &ReLU{Dim: dim} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// OutDim implements Layer.
func (r *ReLU) OutDim() int { return r.Dim }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	checkCols(r, r.Dim, x.Cols)
	out := x.Clone()
	if train {
		r.mask = make([]bool, len(out.Data))
	}
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		} else if train {
			r.mask[i] = true
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if r.mask == nil {
		panic("nn: ReLU.Backward without training Forward")
	}
	out := grad.Clone()
	for i := range out.Data {
		if !r.mask[i] {
			out.Data[i] = 0
		}
	}
	return out
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
	rng *rand.Rand

	// seed and draws make the RNG state capturable without mutating it:
	// the stream is fully determined by the construction seed and the
	// number of Float64 draws consumed, so a checkpoint records (seed,
	// draws) and resume replays the discarded prefix. See fastForward.
	seed  int64
	draws int64

	mask []bool
}

var _ Layer = (*Dropout)(nil)

// NewDropout constructs a dropout layer; seed fixes its randomness.
func NewDropout(dim int, p float64, seed int64) *Dropout {
	return &Dropout{Dim: dim, P: p, seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// fastForward discards draws Float64 variates, restoring the RNG to the
// state a checkpoint captured. Replaying the same call sequence on the
// same seed is exact: math/rand is deterministic.
func (d *Dropout) fastForward(draws int64) {
	for i := int64(0); i < draws; i++ {
		d.rng.Float64()
	}
	d.draws = draws
}

// Name implements Layer.
func (d *Dropout) Name() string { return fmt.Sprintf("dropout(%.2f)", d.P) }

// OutDim implements Layer.
func (d *Dropout) OutDim() int { return d.Dim }

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	checkCols(d, d.Dim, x.Cols)
	if !train || d.P <= 0 {
		d.mask = nil
		return x
	}
	out := x.Clone()
	d.mask = make([]bool, len(out.Data))
	d.draws += int64(len(out.Data))
	scale := 1 / (1 - d.P)
	for i := range out.Data {
		if d.rng.Float64() < d.P {
			out.Data[i] = 0
		} else {
			d.mask[i] = true
			out.Data[i] *= scale
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if d.mask == nil {
		return grad
	}
	out := grad.Clone()
	scale := 1 / (1 - d.P)
	for i := range out.Data {
		if d.mask[i] {
			out.Data[i] *= scale
		} else {
			out.Data[i] = 0
		}
	}
	return out
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
