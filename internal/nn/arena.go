package nn

import (
	"sync"

	"github.com/golitho/hsd/internal/tensor"
)

// Arena is a reusable scratch allocator for inference forward passes.
// A forward pass requests the same sequence of matrix shapes every call,
// so the arena hands back the same buffers in order: after the first
// pass through a network, repeated ForwardBatch calls with the same
// arena allocate nothing.
//
// An Arena is not safe for concurrent use; give each worker its own
// (PredictBatch does this via a sync.Pool).
type Arena struct {
	bufs []*tensor.Matrix
	next int
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// get returns an r x c matrix, reusing the buffer at the cursor when its
// capacity suffices and replacing it otherwise. Its contents are
// unspecified (a reused buffer holds the last pass's numbers): every
// forwardInfer writes every cell of what it asks for, so nothing is
// cleared here.
func (a *Arena) get(r, c int) *tensor.Matrix {
	need := r * c
	if a.next < len(a.bufs) && cap(a.bufs[a.next].Data) >= need {
		m := a.bufs[a.next]
		a.next++
		m.Rows, m.Cols = r, c
		m.Data = m.Data[:need]
		return m
	}
	m := tensor.NewMatrix(r, c)
	if a.next < len(a.bufs) {
		a.bufs[a.next] = m
	} else {
		a.bufs = append(a.bufs, m)
	}
	a.next++
	return m
}

// Reset rewinds the cursor so the next forward pass reuses the buffers
// from the start. Matrices returned by the previous pass (including the
// network output) are invalidated.
func (a *Arena) Reset() { a.next = 0 }

// arenaPool recycles arenas across Score and PredictBatch calls so
// steady-state inference allocates no scratch at all.
var arenaPool = sync.Pool{New: func() any { return NewArena() }}

func getArena() *Arena { return arenaPool.Get().(*Arena) }

func putArena(a *Arena) {
	a.Reset()
	arenaPool.Put(a)
}
