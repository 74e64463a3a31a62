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
// as ForwardBatch does; those two layers then hold no scratch of their
// own, and the matching Backward is Network.Backward, not theirs.
func (n *Network) Forward(x *tensor.Matrix) *tensor.Matrix {
	for i := 0; i < len(n.Layers); i++ {
		if c := n.convReLUPoolAt(i); c != nil {
			x = c.forwardTrainReLUPool(x)
			i += 2
		} else {
			x = n.Layers[i].Forward(x)
		}
	}
	return x
}

// Backward runs backpropagation from the loss gradient of the last
// training Forward, through the same steps in reverse. Nothing reads the
// first layer's dL/dInput, so a first layer that can skip it (see
// paramGrader) is asked for its parameter gradients only.
func (n *Network) Backward(grad *tensor.Matrix) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		if c := n.convReLUPoolAt(i - 2); c != nil {
			i -= 2
			grad = c.backwardReLUPool(grad, i > 0)
		} else if pg, ok := n.Layers[i].(paramGrader); ok && i == 0 {
			pg.backwardParams(grad)
		} else {
			grad = n.Layers[i].Backward(grad)
		}
	}
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
