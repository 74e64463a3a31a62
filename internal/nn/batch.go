// Batched inference engine: an allocation-free, concurrency-safe forward
// path over reusable scratch arenas.
//
// Network.Forward mutates per-layer caches even in eval mode, so a
// Network cannot be shared across goroutines that call it. The inference
// path below (ForwardBatch, and Score and PredictBatch on top of it)
// reads only layer parameters and writes only arena-owned scratch, which
// makes one Network safely shareable by any number of workers — each
// with its own Arena. Determinism contract: every sample's score is
// computed row-independently with a fixed operation order, so results
// are bit-identical to the training-path Forward regardless of batch
// size, chunking, or worker count.

package nn

import (
	"context"
	"fmt"
	"math"

	"github.com/golitho/hsd/internal/tensor"
	"github.com/golitho/hsd/internal/trace"
)

// inferencer is the optional allocation-free inference path of a layer:
// read-only on the layer, scratch from the arena. Every in-package layer
// implements it; foreign layers fall back to Forward(x, false), which
// loses the concurrency guarantee for that network.
type inferencer interface {
	forwardInfer(x *tensor.Matrix, ar *Arena) *tensor.Matrix
}

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
	for i := 0; i < len(n.Layers); i++ {
		l := n.Layers[i]
		if c := n.convReLUPoolAt(i); c != nil {
			x = c.forwardInferReLUPool(x, ar)
			i += 2
		} else if inf, ok := l.(inferencer); ok {
			x = inf.forwardInfer(x, ar)
		} else {
			x = l.Forward(x, false)
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
	return PredictBatchCtx(context.Background(), net, x, workers)
}

// PredictBatchCtx is PredictBatch with cancellation and trace
// attribution: the whole pass runs under an "nn.batch" span, and each
// micro-batch emits an "nn.arena" span (scratch reset + input staging)
// and an "nn.matmul" span (the layer forward passes + softmax).
// Concurrent chunk spans parent to the batch span and render as
// parallel lanes in the Chrome export. With tracing disabled the added
// cost is nil-span no-ops.
//
// Cancellation is observed at chunk boundaries: once ctx is done,
// unstarted chunks are skipped and PredictBatchCtx returns ctx's error
// with a nil result. In-flight chunks always finish first, so no
// goroutine writes the output slice after return.
func PredictBatchCtx(ctx context.Context, net *Network, x [][]float64, workers int) ([]float64, error) {
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
	pool := tensor.Default()
	if workers <= 0 {
		workers = pool.Workers() + 1
	}
	nchunks := (len(x) + predictChunk - 1) / predictChunk
	if workers > nchunks {
		workers = nchunks
	}
	bctx, bsp := trace.Start(ctx, "nn.batch")
	bsp.SetAttrInt("samples", len(x))
	bsp.SetAttrInt("workers", workers)
	defer bsp.End()
	out := make([]float64, len(x))
	scoreChunk := func(ar *Arena, start int) {
		end := min(start+predictChunk, len(x))
		_, asp := trace.Start(bctx, "nn.arena")
		ar.Reset()
		xb := ar.get(end-start, dim)
		for i := start; i < end; i++ {
			copy(xb.Row(i-start), x[i])
		}
		asp.End()
		_, msp := trace.Start(bctx, "nn.matmul")
		msp.SetAttrInt("rows", end-start)
		logits := net.ForwardBatch(xb, ar)
		logits.SoftmaxRows()
		msp.End()
		for i := 0; i < logits.Rows; i++ {
			out[start+i] = logits.At(i, 1)
		}
	}
	// One pool shard covers a contiguous run of chunks; each shard
	// borrows a scratch arena for its lifetime. The pool's caller
	// participation means workers==1 runs entirely inline here.
	if err := pool.RunCtx(ctx, nchunks, workers, func(lo, hi int) {
		ar := getArena()
		defer putArena(ar)
		for ci := lo; ci < hi; ci++ {
			if ctx.Err() != nil {
				return
			}
			scoreChunk(ar, ci*predictChunk)
		}
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// forwardInfer implements inferencer: y = x*W + b without touching the
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

// forwardInfer implements inferencer.
func (r *ReLU) forwardInfer(x *tensor.Matrix, ar *Arena) *tensor.Matrix {
	checkCols(r, r.Dim, x.Cols)
	out := ar.get(x.Rows, x.Cols)
	reluInto(out.Data, x.Data)
	return out
}

// forwardInfer implements inferencer: inference dropout is the identity.
func (d *Dropout) forwardInfer(x *tensor.Matrix, _ *Arena) *tensor.Matrix {
	checkCols(d, d.Dim, x.Cols)
	return x
}

// forwardInfer implements inferencer: the running-statistics eval path.
func (b *BatchNorm) forwardInfer(x *tensor.Matrix, ar *Arena) *tensor.Matrix {
	checkCols(b, b.Dim, x.Cols)
	out := ar.get(x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		src, dst := x.Row(i), out.Row(i)
		for j := range src {
			xhat := (src[j] - b.RunMean[j]) / math.Sqrt(b.RunVar[j]+b.Eps)
			dst[j] = b.Gamma[j]*xhat + b.Beta[j]
		}
	}
	return out
}

// forwardInfer implements inferencer: max pooling without argmax caches.
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
