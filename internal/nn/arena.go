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
// The float64, float32, and int8 pools are independent cursors so a
// mixed-precision network draws from each without disturbing the others.
type Arena struct {
	bufs []*tensor.Matrix
	next int

	bufs32 []*tensor.Matrix32
	next32 int

	bufsI8 []*tensor.Int8Matrix
	nextI8 int
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// get returns a zeroed r x c matrix, reusing the buffer at the cursor
// when its capacity suffices and replacing it otherwise.
func (a *Arena) get(r, c int) *tensor.Matrix {
	need := r * c
	if a.next < len(a.bufs) && cap(a.bufs[a.next].Data) >= need {
		m := a.bufs[a.next]
		a.next++
		m.Rows, m.Cols = r, c
		m.Data = m.Data[:need]
		for i := range m.Data {
			m.Data[i] = 0
		}
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

// get32 is get for float32 scratch, used by the reduced-precision
// inference layers.
func (a *Arena) get32(r, c int) *tensor.Matrix32 {
	need := r * c
	if a.next32 < len(a.bufs32) && cap(a.bufs32[a.next32].Data) >= need {
		m := a.bufs32[a.next32]
		a.next32++
		m.Rows, m.Cols = r, c
		m.Data = m.Data[:need]
		for i := range m.Data {
			m.Data[i] = 0
		}
		return m
	}
	m := tensor.NewMatrix32(r, c)
	if a.next32 < len(a.bufs32) {
		a.bufs32[a.next32] = m
	} else {
		a.bufs32 = append(a.bufs32, m)
	}
	a.next32++
	return m
}

// geti8 is get for int8 scratch (zeroed codes, zeroed scales), used by
// the quantized inference layers.
func (a *Arena) geti8(r, c int) *tensor.Int8Matrix {
	need := r * c
	if a.nextI8 < len(a.bufsI8) && cap(a.bufsI8[a.nextI8].Data) >= need && cap(a.bufsI8[a.nextI8].Scale) >= r {
		m := a.bufsI8[a.nextI8]
		a.nextI8++
		m.Rows, m.Cols = r, c
		m.Data = m.Data[:need]
		m.Scale = m.Scale[:r]
		for i := range m.Data {
			m.Data[i] = 0
		}
		for i := range m.Scale {
			m.Scale[i] = 0
		}
		return m
	}
	m := tensor.NewInt8Matrix(r, c)
	if a.nextI8 < len(a.bufsI8) {
		a.bufsI8[a.nextI8] = m
	} else {
		a.bufsI8 = append(a.bufsI8, m)
	}
	a.nextI8++
	return m
}

// Reset rewinds the cursors so the next forward pass reuses the buffers
// from the start. Matrices returned by the previous pass (including the
// network output) are invalidated.
func (a *Arena) Reset() { a.next, a.next32, a.nextI8 = 0, 0, 0 }

// arenaPool recycles arenas across Score and PredictBatch calls so
// steady-state inference allocates no scratch at all.
var arenaPool = sync.Pool{New: func() any { return NewArena() }}

func getArena() *Arena { return arenaPool.Get().(*Arena) }

func putArena(a *Arena) {
	a.Reset()
	arenaPool.Put(a)
}
