// Package nn is a from-scratch neural-network framework sized for
// hotspot detection: dense and convolutional layers over float64
// minibatches, softmax cross-entropy with the biased-learning variant of
// the hotspot literature, Adam built afresh for each fit, and a network
// file declared as a framelog single-frame format, whose bytes are a
// function of the saved state alone.
//
// Batches are tensor.Matrix values with one flattened sample per row.
// Convolutional layers interpret rows in (C, H, W) channel-major order,
// matching the feature-tensor layout produced by the features package.
//
// Forward is the training pass: layers keep per-batch scratch in it for
// Backward (see scratch.go), so Forward and Backward are NOT safe for
// concurrent use; Clone one network per training goroutine. A training
// pass through a Network pairs Network.Forward with Network.Backward: the
// two take some runs of layers in one step (see Forward), so a layer's
// own Backward only follows that layer's own Forward. Inference is the
// other pass (forwardInfer, under ForwardBatch, Score and PredictBatch):
// it only reads the network, and any number of callers may share one.
package nn

import (
	"fmt"
	"math/rand"

	"github.com/golitho/hsd/internal/tensor"
)

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	W, G *tensor.Matrix
}

// Layer is one differentiable network stage.
type Layer interface {
	// Name identifies the layer in diagnostics.
	Name() string
	// OutDim is the flattened output width given the configured input.
	OutDim() int
	// Forward is the training pass: it consumes a batch (one sample per
	// row), returns the layer output and keeps what Backward needs.
	Forward(x *tensor.Matrix) *tensor.Matrix
	// forwardInfer is the inference pass of ForwardBatch: it reads the
	// layer and writes only scratch drawn from ar, so concurrent callers
	// with their own arenas may share one layer. It is unexported, so
	// every Layer is one of this package's.
	forwardInfer(x *tensor.Matrix, ar *Arena) *tensor.Matrix
	// Backward consumes dL/dOutput and returns dL/dInput, accumulating
	// parameter gradients.
	Backward(grad *tensor.Matrix) *tensor.Matrix
	// Params returns the layer's trainable parameters (nil when none).
	Params() []*Param
	// Clone returns an independent copy sharing no mutable state.
	Clone() Layer
}

// Network is a sequential stack of layers.
type Network struct {
	Layers []Layer

	// grads is the gradient pass over the layers' parameters
	// (finishGrads), built when it first runs, and batch the buffer
	// forwardRows copies a batch into when it must; both are dropped
	// with the layers' training scratch.
	grads *gradPass
	batch *tensor.Matrix
}

// NewNetwork builds a sequential network.
func NewNetwork(layers ...Layer) *Network { return &Network{Layers: layers} }

// OutDim returns the output width of the final layer.
func (n *Network) OutDim() int {
	if len(n.Layers) == 0 {
		return 0
	}
	return n.Layers[len(n.Layers)-1].OutDim()
}

// Forward runs the training pass over the whole stack. It takes a Conv2D
// with the ReLU and 2x2 MaxPool2D behind it (convReLUPoolAt) in one step,
// as ForwardBatch does, and such runs back to back (chainAt) in one pass
// over the batch; those ReLUs and pools then hold no scratch of their
// own, and the matching Backward is Network.Backward, not theirs.
func (n *Network) Forward(x *tensor.Matrix) *tensor.Matrix { return n.trainFrom(0, x) }

// forwardRows is Forward over the batch whose sample i is rows[i]. A
// chain at layer 0 borders each sample straight from its row; any other
// network has the rows copied into a batch buffer first.
func (n *Network) forwardRows(rows [][]float64) *tensor.Matrix {
	if ch := n.chainAt(0); ch != nil {
		return n.trainFrom(len(ch), ch.forward(nil, rows))
	}
	n.batch = sized(n.batch, len(rows), len(rows[0]))
	for i, row := range rows {
		copy(n.batch.Row(i), row)
	}
	return n.trainFrom(0, n.batch)
}

// trainFrom is Forward from layer i on, x being its input.
func (n *Network) trainFrom(i int, x *tensor.Matrix) *tensor.Matrix {
	for i < len(n.Layers) {
		if ch := n.chainAt(i); ch != nil {
			x, i = ch.forward(x, nil), i+len(ch)
		} else {
			x, i = n.Layers[i].Forward(x), i+1
		}
	}
	return x
}

// chainAt returns the conv-ReLU-pool runs (convReLUPoolAt) that follow
// one another from layer i on, as a convChain; nil when none opens at
// i. Runs that do not fit together panic on the first Forward, as their
// layers would one by one.
func (n *Network) chainAt(i int) convChain {
	end := i
	for n.convReLUPoolAt(end) != nil {
		end += 3
	}
	if end == i {
		return nil
	}
	return convChain(n.Layers[i:end])
}

// chainBefore is chainAt for the runs that end at layer end, exclusive:
// the same chains, found from their last layer.
func (n *Network) chainBefore(end int) convChain {
	i := end
	for n.convReLUPoolAt(i-3) != nil {
		i -= 3
	}
	if i == end {
		return nil
	}
	return convChain(n.Layers[i:end])
}

// Backward runs backpropagation from the loss gradient of the last
// training Forward, through the same steps in reverse, and then the
// gradient pass (finishGrads). Nothing reads the first layer's
// dL/dInput, so a first layer that can skip it (see paramGrader) is
// asked for its parameter gradients only.
func (n *Network) Backward(grad *tensor.Matrix) {
	n.backwardLayers(grad)
	n.finishGrads()
}

// backwardLayers is Backward without the gradient pass: the weight and
// bias gradients of a chain's convolutions are left in their slots.
func (n *Network) backwardLayers(grad *tensor.Matrix) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		if ch := n.chainBefore(i + 1); ch != nil {
			i -= len(ch) - 1
			grad = ch.backward(grad, i > 0)
		} else if pg, ok := n.Layers[i].(paramGrader); ok && i == 0 {
			pg.backwardParams(grad)
		} else {
			grad = n.Layers[i].Backward(grad)
		}
	}
}

// finishGrads is the gradient pass of a step, on every executor of the
// kernel pool: it adds the slots a chain left pending (convChain.backward)
// into their gradients and checks every gradient for a NaN or Inf. It
// reports the lowest index, in Params order, of a parameter whose
// gradient is not finite.
func (n *Network) finishGrads() (int, bool) {
	if n.grads == nil {
		n.grads = newGradPass(n)
	}
	return n.grads.finish()
}

// Params collects every trainable parameter in the stack.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Clone returns a deep copy safe for concurrent inference.
func (n *Network) Clone() *Network {
	out := &Network{Layers: make([]Layer, len(n.Layers))}
	for i, l := range n.Layers {
		out.Layers[i] = l.Clone()
	}
	return out
}

// Init (re)initializes all parameters with He-style scaling from rng.
func (n *Network) Init(rng *rand.Rand) {
	for _, l := range n.Layers {
		if init, ok := l.(interface{ init(*rand.Rand) }); ok {
			init.init(rng)
		}
	}
}

// checkCols panics with a clear message on a layer input-width mismatch;
// this is a programming error (wrong architecture wiring), not runtime
// input, so panicking is appropriate.
func checkCols(l Layer, want, got int) {
	if want != got {
		// Name is a Sprintf: built only for the panic, not per pass.
		panic(fmt.Sprintf("nn: %s expects input width %d, got %d", l.Name(), want, got))
	}
}
