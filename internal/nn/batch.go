// Batched inference engine: an allocation-free, concurrency-safe forward
// path over reusable scratch arenas.
//
// Network.Forward is the training pass and keeps per-layer scratch, so a
// Network cannot be shared across goroutines that call it. The inference
// path below (ForwardBatch, and Score and PredictBatch on top of it)
// reads only layer parameters and writes only arena-owned scratch, which
// makes one Network safely shareable by any number of workers — each
// with its own Arena. Determinism contract: every sample's score is
// computed row-independently with a fixed operation order, so results
// are bit-identical regardless of batch size, chunking, or worker count,
// and to the layers run one by one with the gathered (im2col)
// convolution, the reference the equivalence tests hold them to.

package nn

import (
	"fmt"
	"math"

	"github.com/golitho/hsd/internal/tensor"
)

// ForwardBatch runs an inference-only forward pass over a batch (one
// sample per row) using ar for every intermediate activation. Unlike
// Forward it does not mutate the network, so a single Network may serve
// concurrent ForwardBatch calls as long as each caller owns its arena.
//
// The returned matrix is arena-backed: it is valid until the arena is
// Reset or used for another pass. A nil arena allocates a private one.
func (n *Network) ForwardBatch(x *tensor.Matrix, ar *Arena) *tensor.Matrix {
	if ar == nil {
		ar = NewArena()
	}
	return n.forwardFrom(0, x, ar)
}

// forwardFrom is ForwardBatch over layers start onward, x being what
// layer start-1 returned.
func (n *Network) forwardFrom(start int, x *tensor.Matrix, ar *Arena) *tensor.Matrix {
	for i := start; i < len(n.Layers); i++ {
		if c := n.convReLUPoolAt(i); c != nil {
			x = c.forwardInferReLUPool(x, ar)
			i += 2
		} else {
			x = n.Layers[i].forwardInfer(x, ar)
		}
	}
	return x
}

// predictChunk is the micro-batch row count of PredictBatch: small
// enough that per-worker scratch stays cache-resident, large enough to
// amortize the batched matmuls.
const predictChunk = 32

// PredictBatch scores many samples through the batched inference engine
// and returns the per-sample hotspot probability, in input order.
// Chunks of predictChunk rows are sharded over the persistent kernel
// pool (tensor.Default) with up to `workers` concurrent shards
// (workers <= 0 means the pool's full width), each shard scoring its
// chunks with a pooled scratch arena.
//
// Output is deterministic: identical inputs yield bit-identical scores
// for any worker count, and identical to the serial Score path.
func PredictBatch(net *Network, x [][]float64, workers int) ([]float64, error) {
	if len(x) == 0 {
		return nil, nil
	}
	dim := len(x[0])
	for i := range x {
		if len(x[i]) != dim {
			return nil, fmt.Errorf("nn: sample %d has dim %d, want %d", i, len(x[i]), dim)
		}
	}
	if net.OutDim() != 2 {
		return nil, fmt.Errorf("nn: PredictBatch needs a 2-logit head, got %d", net.OutDim())
	}
	nchunks := (len(x) + predictChunk - 1) / predictChunk
	out := make([]float64, len(x))
	// One pool shard covers a contiguous run of chunks; each shard
	// borrows a scratch arena for its lifetime. The pool's caller
	// participation means workers==1 runs entirely inline here.
	tensor.Default().Run(nchunks, workers, func(lo, hi int) {
		ar := getArena()
		defer putArena(ar)
		for ci := lo; ci < hi; ci++ {
			start := ci * predictChunk
			end := min(start+predictChunk, len(x))
			ar.Reset()
			xb := ar.get(end-start, dim)
			for i := start; i < end; i++ {
				copy(xb.Row(i-start), x[i])
			}
			logits := net.ForwardBatch(xb, ar)
			logits.SoftmaxRows()
			for i := 0; i < logits.Rows; i++ {
				out[start+i] = logits.At(i, 1)
			}
		}
	})
	return out, nil
}

// forwardInfer implements Layer: y = x*W + b without touching the
// input cache.
func (d *Dense) forwardInfer(x *tensor.Matrix, ar *Arena) *tensor.Matrix {
	checkCols(d, d.In, x.Cols)
	out := ar.get(x.Rows, d.Out)
	tensor.ParallelMatMulInto(out, x, d.W)
	if err := out.AddRowVector(d.B); err != nil {
		panic(err) // impossible: dimensions fixed at construction
	}
	return out
}

// forwardInfer implements Layer.
func (r *ReLU) forwardInfer(x *tensor.Matrix, ar *Arena) *tensor.Matrix {
	checkCols(r, r.Dim, x.Cols)
	out := ar.get(x.Rows, x.Cols)
	reluInto(out.Data, x.Data)
	return out
}

// forwardInfer implements Layer: inference dropout is the identity.
func (d *Dropout) forwardInfer(x *tensor.Matrix, _ *Arena) *tensor.Matrix {
	checkCols(d, d.Dim, x.Cols)
	return x
}

// forwardInfer implements Layer: max pooling without argmax caches.
func (m *MaxPool2D) forwardInfer(x *tensor.Matrix, ar *Arena) *tensor.Matrix {
	checkCols(m, m.C*m.H*m.W, x.Cols)
	oh, ow := m.H/m.Size, m.W/m.Size
	out := ar.get(x.Rows, m.OutDim())
	for i := 0; i < x.Rows; i++ {
		src := x.Row(i)
		dst := out.Row(i)
		for ch := 0; ch < m.C; ch++ {
			chOff := ch * m.H * m.W
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := math.Inf(-1)
					for dy := 0; dy < m.Size; dy++ {
						row := chOff + (oy*m.Size+dy)*m.W
						for dx := 0; dx < m.Size; dx++ {
							if v := src[row+ox*m.Size+dx]; v > best {
								best = v
							}
						}
					}
					dst[(ch*oh+oy)*ow+ox] = best
				}
			}
		}
	}
	return out
}
