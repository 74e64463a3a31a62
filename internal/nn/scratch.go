// Training scratch.
//
// A training step needs buffers that outlive one call: Forward(x)
// leaves behind what Backward reads, and both return a matrix the
// neighbouring layer consumes. What is kept is the smallest thing the
// gradient can be formed from, not a copy of what Forward computed: a
// Conv2D keeps each sample's zero-bordered input (no column
// matrix: the weight gradient multiplies the bordered copy where it
// lies); with a ReLU and a 2x2 pool behind it, taken in the same step, it
// keeps one int32 per pooled cell, and those two layers keep nothing (no
// full-size activation, mask or argmax); on their own a ReLU keeps its
// mask and a pool its argmax. Each layer holds its scratch in one struct
// behind a pointer (convScratch, denseScratch, ...), created by its first
// training Forward and from then on resized in place, so a step
// allocates nothing once the first full batch has gone through. FitCtx
// drops every layer's struct when it returns: the scratch lives exactly
// as long as the fit that filled it, and a trained network, a Clone and
// a loaded model hold none.
//
// Two consequences for callers. A matrix returned by Forward or by
// Backward is valid until that layer's next Forward or Backward, not
// longer. And inference (forwardInfer) neither reads nor writes the
// scratch; it draws its result from the caller's arena.

package nn

import (
	"sync/atomic"

	"github.com/golitho/hsd/internal/tensor"
)

// grow returns s with length n, reusing its backing array when that is
// large enough. Contents are unspecified: callers overwrite every
// element or clear what they accumulate into.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sized is grow for a matrix; a nil m allocates.
func sized(m *tensor.Matrix, r, c int) *tensor.Matrix {
	if m == nil {
		return tensor.NewMatrix(r, c)
	}
	m.Rows, m.Cols, m.Data = r, c, grow(m.Data, r*c)
	return m
}

// transposeInto writes srcᵀ into dst (resized as by sized).
func transposeInto(dst, src *tensor.Matrix) *tensor.Matrix {
	dst = sized(dst, src.Cols, src.Rows)
	src.TransposeInto(dst.Data)
	return dst
}

// executors is how many goroutines the kernel pool can run a layer's
// samples on: its workers and the caller.
func executors() int { return tensor.Default().Workers() + 1 }

// forSamples calls fn(w, i) once for every sample i in [0, n), from at
// most ex goroutines of the kernel pool; w < ex names the goroutine, for
// scratch that must not be shared. Samples are handed out one at a time
// as goroutines come free, so a core the box takes away for a moment
// costs one sample's wait, not a fixed share of the batch. fn must
// write only what belongs to sample i or to w: what it computes for a
// sample may not depend on w or on the order of the calls.
func forSamples(n, ex int, fn func(w, i int)) { new(sampleLoop).forSamples(n, ex, fn) }

// sampleLoop is forSamples' hand-out. An owner that forks every step
// keeps one, so that its forks allocate neither the counter nor the
// function handed to the pool, which is bound on first use.
type sampleLoop struct {
	next atomic.Int64
	n    int
	fn   func(w, i int)
	run  func(lo, hi int)
}

// forSamples is the package's forSamples over l. l serves one call at a
// time.
func (l *sampleLoop) forSamples(n, ex int, fn func(w, i int)) {
	if l.run == nil {
		l.run = l.goroutines
	}
	l.next.Store(0)
	l.n, l.fn = n, fn
	tensor.Default().Run(min(ex, n), min(ex, n), l.run)
	l.fn = nil
}

// goroutines is the loop of pool goroutines [lo, hi).
func (l *sampleLoop) goroutines(lo, hi int) {
	for w := lo; w < hi; w++ {
		for i := int(l.next.Add(1)) - 1; i < l.n; i = int(l.next.Add(1)) - 1 {
			l.fn(w, i)
		}
	}
}

// minShardElems is the batch size in elements below which the
// element-wise layers run on the calling goroutine. Starting a worker
// that is polling the queue takes a microsecond or two (tensor.Pool), but
// a forked pass also pays for the call's bookkeeping and the samples'
// hand-out. A ReLU forward pass over a 32-row batch, forked against
// serial on a 2-vCPU box: 2^12 elements 20-24 µs against 15-16, 2^13
// 50-62 against 31-39, 2^14 95-99 against 132-172. So the pool starts to
// pay between 2^13 and 2^14 elements.
const minShardElems = 1 << 14

// forRows calls fn(i) for every row of a rows x cols batch, on the
// kernel pool when the batch is large enough to pay for the handoff. fn
// must confine itself to row i.
func forRows(rows, cols int, fn func(i int)) {
	if rows*cols < minShardElems {
		for i := 0; i < rows; i++ {
			fn(i)
		}
		return
	}
	forSamples(rows, executors(), func(_, i int) { fn(i) })
}

// paramGrader is implemented by layers that can accumulate their
// parameter gradients without forming dL/dInput. Network.Backward asks
// it of the first layer, whose input gradient nothing reads; Backward
// itself always returns dL/dInput.
type paramGrader interface {
	backwardParams(grad *tensor.Matrix)
}

// dropScratch releases every layer's training scratch and the network's
// own: its gradient pass and batch buffer.
func (n *Network) dropScratch() {
	n.grads, n.batch = nil, nil
	for _, l := range n.Layers {
		if s, ok := l.(interface{ dropScratch() }); ok {
			s.dropScratch()
		}
	}
}
