package nn

import (
	"math"

	"github.com/golitho/hsd/internal/tensor"
)

// Adam's learning rate, moment decay rates and denominator guard,
// Kingma & Ba's defaults. They are typed so that 1-adamBeta1 is the
// float64 difference the trained-bytes goldens were taken with, not the
// exact 0.1.
const (
	adamLR    float64 = 1e-3
	adamBeta1 float64 = 0.9
	adamBeta2 float64 = 0.999
	adamEps   float64 = 1e-8
)

// tailChunks is how many element ranges per executor the gradient pass
// and Adam's step are cut into, handed out one at a time as executors
// come free (forSamples). Either pass is 200-300 µs of work on one
// core. When a pool worker parked between passes, it took a median 64
// µs to start on a 2-vCPU box: cut in one range per executor, the caller
// had usually run both before the worker woke, and eighths left a late
// worker a share. Workers now poll the queue between a step's forks
// (tensor.Pool), but the box can still take a core away for a while, and
// halves measured no faster than eighths (BenchmarkFitZooCNN -cpu 2,
// ahead in 6 of 15 alternating rounds).
const tailChunks = 8

// chunks is how many ranges a tail pass of the given cost is cut into:
// one, run on the caller, when the pass costs less than a handoff to the
// pool.
func chunks(cost int) int {
	if cost < minShardElems {
		return 1
	}
	return tailChunks * executors()
}

// adam is one fit's Adam optimizer (Kingma & Ba 2015): the step count
// and every parameter's first and second moments. FitCtx builds it
// fresh, so no fit sees another's state.
type adam struct {
	t    int
	m, v []*tensor.Matrix
	// n is the element count of the parameters laid end to end; params,
	// c1, c2 and nc (its range count) are the step in progress, which
	// updateChunk reads on every executor. run is updateChunk, bound
	// once, and loop the hand-out, so that a step allocates nothing.
	n, nc  int
	params []*Param
	c1, c2 float64
	run    func(w, c int)
	loop   sampleLoop
}

// newAdam returns step zero over params: zero moments.
func newAdam(params []*Param) *adam {
	a := &adam{m: make([]*tensor.Matrix, len(params)), v: make([]*tensor.Matrix, len(params))}
	for i, p := range params {
		a.m[i] = tensor.NewMatrix(p.W.Rows, p.W.Cols)
		a.v[i] = tensor.NewMatrix(p.W.Rows, p.W.Cols)
		a.n += len(p.W.Data)
	}
	a.run = a.updateChunk
	return a
}

// step updates every parameter from its gradient; gradients are not
// cleared (FitCtx zeroes each Param's G before the next Backward). The
// parameters, laid end to end, are cut into element ranges spread over
// the kernel pool: an element's update reads and writes that element
// alone, so the cut does not show in the bytes.
func (a *adam) step(params []*Param) {
	a.t++
	a.c1 = 1 - math.Pow(adamBeta1, float64(a.t))
	a.c2 = 1 - math.Pow(adamBeta2, float64(a.t))
	a.params, a.nc = params, chunks(a.n)
	a.loop.forSamples(a.nc, executors(), a.run)
}

// updateChunk applies the step in progress to range c of a.nc.
func (a *adam) updateChunk(_, c int) { a.update(c*a.n/a.nc, (c+1)*a.n/a.nc) }

// update applies the step in progress to elements [lo, hi) of the
// parameters laid end to end.
func (a *adam) update(lo, hi int) {
	c1, c2 := a.c1, a.c2
	off := 0
	for i, p := range a.params {
		j0, j1 := max(lo-off, 0), min(hi-off, len(p.G.Data))
		off += len(p.G.Data)
		m, v, w := a.m[i].Data, a.v[i].Data, p.W.Data
		for j := j0; j < j1; j++ {
			g := p.G.Data[j]
			m[j] = adamBeta1*m[j] + (1-adamBeta1)*g
			v[j] = adamBeta2*v[j] + (1-adamBeta2)*g*g
			mh := m[j] / c1
			vh := v[j] / c2
			w[j] -= adamLR * mh / (math.Sqrt(vh) + adamEps)
		}
		if off >= hi {
			return
		}
	}
}

// gradPass is a network's gradient pass (Network.finishGrads). Its
// parts, one per parameter in Params order, are laid end to end and cut
// into contiguous ranges of about equal work, an element costing one
// check and one add for each slot pending on it, spread over the kernel
// pool.
type gradPass struct {
	parts []gradPart
	// bounds[c], bounds[c+1] is range c; bad[c] is the lowest part index
	// in it whose gradient is not finite, or -1. run is finishChunk,
	// bound once, and loop the hand-out, so that a step allocates
	// nothing.
	bounds, bad []int
	run         func(w, c int)
	loop        sampleLoop
}

// gradPart is one parameter's gradient g. When it is a Conv2D's weight
// (bias: its bias) gradient, conv is that layer, and while the layer has
// slots pending, the part's elements are addWeightSlots' (addBiasSlots').
type gradPart struct {
	g    []float64
	conv *Conv2D
	bias bool
}

func newGradPass(n *Network) *gradPass {
	p := &gradPass{}
	for _, l := range n.Layers {
		c, _ := l.(*Conv2D)
		for k, prm := range l.Params() {
			p.parts = append(p.parts, gradPart{g: prm.G.Data, conv: c, bias: k == 1})
		}
	}
	p.run = p.finishChunk
	return p
}

// pending is how many samples' slots the part is still to add in.
func (pt gradPart) pending() int {
	if pt.conv == nil || pt.conv.tr == nil {
		return 0
	}
	return pt.conv.tr.pending
}

// finish runs the pass and clears the slots it added in; see
// Network.finishGrads. Ranges ascend with the part index, so the first
// with a bad part holds the lowest.
func (p *gradPass) finish() (int, bool) {
	nc := p.split()
	p.loop.forSamples(nc, executors(), p.run)
	for _, pt := range p.parts {
		if pt.pending() > 0 {
			pt.conv.tr.pending = 0
		}
	}
	for _, k := range p.bad[:nc] {
		if k >= 0 {
			return k, true
		}
	}
	return 0, false
}

// split cuts the pass into ranges and returns how many.
func (p *gradPass) split() int {
	total := 0
	for _, pt := range p.parts {
		total += len(pt.g) * (1 + pt.pending())
	}
	nc := chunks(total)
	p.bounds, p.bad = grow(p.bounds, nc+1), grow(p.bad, nc)
	p.bounds[0] = 0
	c, off, acc := 1, 0, 0
	for _, pt := range p.parts {
		cost := 1 + pt.pending()
		// Boundary c is the first element before which the cost reaches
		// c/nc of the total.
		for ; c < nc && acc+len(pt.g)*cost >= c*total/nc; c++ {
			p.bounds[c] = off + (c*total/nc-acc+cost-1)/cost
		}
		acc += len(pt.g) * cost
		off += len(pt.g)
	}
	p.bounds[nc] = off
	return nc
}

// finishChunk runs range c.
func (p *gradPass) finishChunk(_, c int) { p.bad[c] = p.finishRange(p.bounds[c], p.bounds[c+1]) }

// finishRange adds in the pending slots of elements [lo, hi) and checks
// them, returning the lowest part index among them whose gradient is not
// finite, or -1.
func (p *gradPass) finishRange(lo, hi int) int {
	bad, off := -1, 0
	for k, pt := range p.parts {
		a, b := max(lo-off, 0), min(hi-off, len(pt.g))
		off += len(pt.g)
		if a < b && !pt.finishElems(a, b) && bad < 0 {
			bad = k
		}
		if off >= hi {
			break
		}
	}
	return bad
}

// finishElems adds in and checks elements [a, b) of the part, reporting
// whether they are all finite.
func (pt gradPart) finishElems(a, b int) bool {
	switch rows := pt.pending(); {
	case rows == 0:
		return allFinite(pt.g[a:b])
	case pt.bias:
		return pt.conv.addBiasSlots(rows, a, b)
	default:
		return pt.conv.addWeightSlots(rows, a, b)
	}
}

// isFinite reports whether v is neither NaN nor an infinity.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// allFinite reports whether every element of s is finite.
func allFinite(s []float64) bool {
	for _, v := range s {
		if !isFinite(v) {
			return false
		}
	}
	return true
}
