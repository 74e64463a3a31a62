package nn

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/golitho/hsd/internal/tensor"
)

// Conv2D is a stride-1 2-D convolution over (C, H, W) channel-major
// flattened rows.
type Conv2D struct {
	InC, InH, InW int
	OutC          int
	K, Pad        int

	W *tensor.Matrix // OutC x (InC*K*K)
	B []float64

	gw *tensor.Matrix
	gb []float64
	tr *convScratch
	// taps addresses the right-hand rows of the forward product and
	// gradRows those of the weight gradient's (see fused.go); built once
	// here, read-only, shared by concurrent scorers.
	taps, gradRows tensor.RowTable
}

// convScratch is what one training step of a Conv2D keeps between
// Forward and Backward and hands to its neighbours (see scratch.go).
type convScratch struct {
	// x views the last training Forward's input, one row per sample,
	// borrowed from the caller. padded holds sample i's zero-bordered
	// copy at [i*InC*PH*PW:], the operand Forward's sums and Backward's
	// weight gradient both multiply where it lies.
	x      [][]float64
	padded []float64
	out    *tensor.Matrix

	// A run of a convChain. win holds, per sample and
	// pooled cell, the index in the sample's OutC x positions plane of the
	// cell its gradient goes to, or -1 when it goes nowhere. plane is one
	// such plane per pool goroutine: a sample's sums on the way forward,
	// its dL/dSums on the way back.
	win   []int32
	plane []float64

	// gwSlot and gbSlot hold sample i's weight- and bias-gradient
	// partials at [i*klen*OutC:] and [i*OutC:], the first transposed
	// (klen x OutC, as the kernel produces it). Pool goroutines fill
	// them concurrently; addWeightSlots and addBiasSlots then add them
	// into gw and gb in ascending sample order, the order the serial
	// loop summed in, so the gradients do not depend on which goroutine
	// took which sample. pending is how many samples' slots are still to
	// be added by the network's gradient pass (Network.finishGrads): a
	// convChain's backward leaves them there, the layer's own Backward
	// adds them itself.
	gwSlot, gbSlot []float64
	pending        int

	dx *tensor.Matrix
	wT *tensor.Matrix
	// Per pool goroutine: gradT is a sample's dL/dSums transposed
	// (positions x OutC) and band a K*K x positions slice of Wᵀ·grad:
	// one input channel at a time on its way through col2im.
	gradT, band []float64
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D constructs a convolution layer. It panics when the geometry
// does not produce a positive output size (a wiring error).
func NewConv2D(inC, inH, inW, outC, k, pad int) *Conv2D {
	c := &Conv2D{
		InC: inC, InH: inH, InW: inW,
		OutC: outC, K: k, Pad: pad,
		W:  tensor.NewMatrix(outC, inC*k*k),
		B:  make([]float64, outC),
		gw: tensor.NewMatrix(outC, inC*k*k),
		gb: make([]float64, outC),
	}
	if c.OutH() <= 0 || c.OutW() <= 0 {
		panic(fmt.Sprintf("nn: conv %dx%dx%d k=%d p=%d yields empty output", inC, inH, inW, k, pad))
	}
	g := c.geom()
	c.taps, c.gradRows = g.tapTable(), g.gradRowTable()
	return c
}

// OutH returns the output height.
func (c *Conv2D) OutH() int { return c.InH + 2*c.Pad - c.K + 1 }

// OutW returns the output width.
func (c *Conv2D) OutW() int { return c.InW + 2*c.Pad - c.K + 1 }

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("conv(%dx%dx%d->%d,k%d)", c.InC, c.InH, c.InW, c.OutC, c.K)
}

// OutDim implements Layer.
func (c *Conv2D) OutDim() int { return c.OutC * c.OutH() * c.OutW() }

func (c *Conv2D) init(rng *rand.Rand) {
	fanIn := float64(c.InC * c.K * c.K)
	c.W.Randomize(rng, math.Sqrt(2/fanIn))
	for i := range c.B {
		c.B[i] = 0
	}
}

func (c *Conv2D) dropScratch() { c.tr = nil }

// col2imChannel scatters one input channel's K*K rows of column
// gradients (band, K*K x positions) into that channel of a flattened
// sample gradient. Taps are visited in ascending (ky, kx), the order in
// which each dst cell must take its terms. Each output row of a tap
// adds one run of the band's row into one run of a dst row, both sliced
// to the tap's valid columns before the element loop, which is then
// free of index arithmetic and bounds checks.
func col2imChannel(g convGeom, ch int, band, dst []float64) {
	positions := g.oh * g.ow
	chOff := ch * g.inH * g.inW
	for ky := 0; ky < g.k; ky++ {
		oy0, oy1 := validRange(g.oh, ky, g.pad, g.inH)
		for kx := 0; kx < g.k; kx++ {
			ox0, ox1 := validRange(g.ow, kx, g.pad, g.inW)
			if ox0 == ox1 {
				continue
			}
			src := band[(ky*g.k+kx)*positions:][:positions]
			for oy := oy0; oy < oy1; oy++ {
				d := dst[chOff+(oy+ky-g.pad)*g.inW+ox0+kx-g.pad:][:ox1-ox0]
				for j, v := range src[oy*g.ow+ox0:][:len(d)] {
					d[j] += v
				}
			}
		}
	}
}

// Forward implements Layer, with the batch's samples spread over the
// kernel pool. Samples are independent, so the output does not depend on
// who computed which.
func (c *Conv2D) Forward(x *tensor.Matrix) *tensor.Matrix {
	g := c.geom()
	s := c.beginTrain(g, x, nil)
	s.out = sized(s.out, x.Rows, c.OutDim())
	forSamples(x.Rows, executors(), func(_, i int) {
		c.trainSums(g, s, i, s.out.Row(i))
		c.addBias(s.out.Row(i))
	})
	return s.out
}

// beginTrain sizes what a training Forward keeps for Backward over the
// batch whose sample i is x.Row(i) or, when rows is not nil, rows[i].
func (c *Conv2D) beginTrain(g convGeom, x *tensor.Matrix, rows [][]float64) *convScratch {
	if c.tr == nil {
		c.tr = &convScratch{}
	}
	s := c.tr
	if rows == nil {
		checkCols(c, c.InC*c.InH*c.InW, x.Cols)
		s.x = grow(s.x, x.Rows)
		for i := range s.x {
			s.x[i] = x.Row(i)
		}
	} else {
		if len(rows) > 0 {
			checkCols(c, c.InC*c.InH*c.InW, len(rows[0]))
		}
		s.x = append(s.x[:0], rows...)
	}
	s.padded = grow(s.padded, len(s.x)*g.paddedLen())
	return s
}

// trainSums computes sample i's sums, bias not yet added, into dst: the
// inference formulation (fused.go) over a zero-bordered copy that stays
// behind for Backward.
func (c *Conv2D) trainSums(g convGeom, s *convScratch, i int, dst []float64) {
	psz := g.paddedLen()
	padded := s.padded[i*psz : (i+1)*psz]
	padSample(g, s.x[i], padded)
	c.paddedSums(g, padded, dst)
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Matrix) *tensor.Matrix { return c.backward(grad, true) }

// backwardParams implements paramGrader.
func (c *Conv2D) backwardParams(grad *tensor.Matrix) { c.backward(grad, false) }

// backward accumulates dL/dW and dL/db and, when needDX, returns
// dL/dInput, given dL/dOutput of the last training Forward.
func (c *Conv2D) backward(grad *tensor.Matrix, needDX bool) *tensor.Matrix {
	ex := executors()
	dx := c.beginBackward(grad, needDX, ex)
	s, g := c.tr, c.geom()
	forSamples(grad.Rows, ex, func(w, i int) {
		gm := tensor.Matrix{Rows: c.OutC, Cols: g.oh * g.ow, Data: grad.Row(i)}
		gm.TransposeInto(s.gradTOf(w, len(gm.Data)))
		c.backwardSample(g, s, w, i, gm.Data, needDX)
	})
	c.addWeightSlots(grad.Rows, 0, len(c.gw.Data))
	c.addBiasSlots(grad.Rows, 0, c.OutC)
	return dx
}

// gradTOf is pool goroutine w's n-element stretch of s.gradT.
func (s *convScratch) gradTOf(w, n int) []float64 { return s.gradT[w*n : (w+1)*n] }

// beginBackward checks that grad is the gradient of what the last
// training Forward returned and sizes Backward's scratch for ex pool
// goroutines. It returns dL/dInput, to be filled, or nil unless needDX.
func (c *Conv2D) beginBackward(grad *tensor.Matrix, needDX bool, ex int) *tensor.Matrix {
	s := c.tr
	if s == nil || s.out.Rows != grad.Rows || s.out.Cols != grad.Cols {
		panic("nn: Conv2D.Backward without training Forward")
	}
	rows, g := grad.Rows, c.geom()
	klen, positions := c.W.Cols, g.oh*g.ow
	s.gwSlot = grow(s.gwSlot, rows*c.OutC*klen)
	s.gbSlot = grow(s.gbSlot, rows*c.OutC)
	s.gradT = grow(s.gradT, ex*positions*c.OutC)
	if needDX {
		s.dx = sized(s.dx, rows, c.InC*c.InH*c.InW)
		s.wT = transposeInto(s.wT, c.W)
		s.band = grow(s.band, ex*c.K*c.K*positions)
		return s.dx
	}
	return nil
}

// backwardSample turns dL/dSums of sample i into the sample's gradient
// slots and, when needDX, its row of s.dx, on pool goroutine w, whose
// stretch of s.gradT holds it transposed (positions x OutC); gm is the
// same gradient as it lay (OutC x positions), read only under needDX.
// Every sum formed here is per sample; see convScratch for why the
// result does not depend on who computed which.
func (c *Conv2D) backwardSample(g convGeom, s *convScratch, w, i int, gm []float64, needDX bool) {
	klen, positions, kk := c.W.Cols, g.oh*g.ow, c.K*c.K
	gradT := tensor.Matrix{Rows: positions, Cols: c.OutC, Data: s.gradTOf(w, positions*c.OutC)}
	sumPositions(gradT.Data, s.gbSlot[i*c.OutC:][:c.OutC])
	// dW partial = grad_i · cols_iᵀ, left as its transpose
	// cols_i · grad_iᵀ: the kernel's lanes lie along OutC.
	psz := g.paddedLen()
	c.paddedWeightGrad(g, s.padded[i*psz:(i+1)*psz], gradT.Data, s.gwSlot[i*klen*c.OutC:][:klen*c.OutC])
	if !needDX {
		return
	}
	// dCols = Wᵀ · grad_i, one input channel's rows at a time,
	// scattered back while the band is cache-hot into the sample's row,
	// cleared first: col2im accumulates.
	gradM := tensor.Matrix{Rows: c.OutC, Cols: positions, Data: gm}
	band := tensor.Matrix{Rows: kk, Cols: positions, Data: s.band[w*kk*positions:][:kk*positions]}
	clear(s.dx.Row(i))
	for ch := 0; ch < c.InC; ch++ {
		wTch := tensor.Matrix{Rows: kk, Cols: c.OutC, Data: s.wT.Data[ch*kk*c.OutC : (ch+1)*kk*c.OutC]}
		tensor.MatMulInto(&band, &wTch, &gradM)
		col2imChannel(g, ch, band.Data, s.dx.Row(i))
	}
}

// sumPositions writes a sample's bias-gradient partial into gb: each
// channel's dL/dSums summed over ascending positions, from zero, gradT
// holding them transposed (positions x len(gb)). Eight channels are
// summed at a time, each in a register of its own, so that the eight
// chains of adds overlap; each sum still takes its terms one at a time in
// ascending position.
func sumPositions(gradT, gb []float64) {
	n := len(gb)
	positions := len(gradT) / n
	oc := 0
	for ; oc+8 <= n; oc += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for p := 0; p < positions; p++ {
			r := gradT[p*n+oc:][:8]
			s0 += r[0]
			s1 += r[1]
			s2 += r[2]
			s3 += r[3]
			s4 += r[4]
			s5 += r[5]
			s6 += r[6]
			s7 += r[7]
		}
		gb[oc], gb[oc+1], gb[oc+2], gb[oc+3] = s0, s1, s2, s3
		gb[oc+4], gb[oc+5], gb[oc+6], gb[oc+7] = s4, s5, s6, s7
	}
	for ; oc < n; oc++ {
		s := 0.0
		for p := 0; p < positions; p++ {
			s += gradT[p*n+oc]
		}
		gb[oc] = s
	}
}

// addWeightSlots adds elements [lo, hi) of the first rows samples'
// weight slots into gw, element j of gwᵀ (t·OutC + oc, as the slots lie)
// being gw[oc·klen + t], so no transpose is formed. Each element takes
// its samples in ascending order, from its current value: the order the
// serial loop summed in. A block of elements at a time is gathered from
// gw into a local buffer, takes every sample's run of the block there,
// and goes back checked. It reports whether every sum it formed is
// finite.
func (c *Conv2D) addWeightSlots(rows, lo, hi int) bool {
	klen, wsz := c.W.Cols, c.OutC*c.W.Cols
	gw, finite := c.gw.Data, true
	var buf [64]float64
	for b := lo; b < hi; b += len(buf) {
		acc := buf[:min(len(buf), hi-b)]
		t, oc := b/c.OutC, b%c.OutC
		for k := range acc {
			acc[k] = gw[oc*klen+t]
			if oc++; oc == c.OutC {
				t, oc = t+1, 0
			}
		}
		for i := 0; i < rows; i++ {
			for k, v := range c.tr.gwSlot[i*wsz+b:][:len(acc)] {
				acc[k] += v
			}
		}
		t, oc = b/c.OutC, b%c.OutC
		for _, v := range acc {
			finite = finite && isFinite(v)
			gw[oc*klen+t] = v
			if oc++; oc == c.OutC {
				t, oc = t+1, 0
			}
		}
	}
	return finite
}

// addBiasSlots is addWeightSlots for elements [lo, hi) of gb.
func (c *Conv2D) addBiasSlots(rows, lo, hi int) bool {
	gb := c.gb[lo:hi]
	for i := 0; i < rows; i++ {
		for k, v := range c.tr.gbSlot[i*c.OutC+lo : i*c.OutC+hi] {
			gb[k] += v
		}
	}
	return allFinite(gb)
}

// convChain is k ≥ 1 conv-ReLU-pool runs (Network.convReLUPoolAt) back to
// back, as they lie in a network's layers: run j's convolution is layer
// 3j. The training pass takes a chain in one pass over the batch each
// way. Within a run, each sample's sums go through bias, ReLU and pool in
// the goroutine that formed them, while they are cache-hot, and what is
// kept for Backward is one index per pooled cell (convScratch.win): the
// full-size activation, the ReLU's mask, the pool's argmax and its input
// gradient are not materialised. Across runs, the goroutine that pooled
// a sample goes on to the next run's sums over the row it just wrote, so
// the pool waits for its slowest sample once a chain, not once a run.
// Outputs and gradients are those of the layers run one after another,
// to the bit (TestConvTrainTailBits, TestConvChainMatchesLayers).
type convChain []Layer

// runs is k, the chain's number of runs.
func (ch convChain) runs() int { return len(ch) / 3 }

// conv is run j's convolution.
func (ch convChain) conv(j int) *Conv2D { return ch[3*j].(*Conv2D) }

// forward is the chain's training Forward over the batch whose sample i
// is x.Row(i) or, when rows is not nil, rows[i]. Each run's convolution
// keeps its own scratch.
func (ch convChain) forward(x *tensor.Matrix, rows [][]float64) *tensor.Matrix {
	ex := executors()
	for j := 0; j < ch.runs(); j++ {
		x, rows = ch.conv(j).beginTrainReLUPool(x, rows, ex), nil
	}
	forSamples(len(ch.conv(0).tr.x), ex, func(w, i int) {
		for j := 0; j < ch.runs(); j++ {
			ch.conv(j).trainReLUPoolSample(w, i)
		}
	})
	return x
}

// beginTrainReLUPool sizes what a run's Forward keeps for Backward (the
// batch as for beginTrain) and its sums planes for ex pool goroutines,
// and returns the run's output, to be filled by trainReLUPoolSample.
func (c *Conv2D) beginTrainReLUPool(x *tensor.Matrix, rows [][]float64, ex int) *tensor.Matrix {
	od := c.OutDim()
	s := c.beginTrain(c.geom(), x, rows)
	s.out = sized(s.out, len(s.x), od/4)
	s.win = grow(s.win, len(s.x)*(od/4))
	s.plane = grow(s.plane, ex*od)
	return s.out
}

// trainReLUPoolSample is a run's Forward of sample i, on pool goroutine
// w: the sums into w's plane, then bias, ReLU and pool while they are
// cache-hot.
func (c *Conv2D) trainReLUPoolSample(w, i int) {
	s, od := c.tr, c.OutDim()
	pooled := s.out.Cols
	sums := s.plane[w*od : (w+1)*od]
	c.trainSums(c.geom(), s, i, sums)
	c.biasReLUPoolTrain(sums, s.out.Row(i), s.win[i*pooled:(i+1)*pooled])
}

// biasReLUPoolTrain is a run's pass over one sample's
// sums. Per 2x2 window of t = v + bias it applies, in this order, the
// rules of the layers it stands for:
//
//   - the training ReLU: t < 0 becomes +0 and its gradient does not pass;
//     NaN and -0 are not < 0, stay as they are and pass;
//   - the pool: the first cell strictly greater than everything before it,
//     starting from -Inf, wins. A NaN never wins, and an all-NaN window
//     yields -Inf with no winner.
//
// win gets the winner's index in the plane, or -1 when there is none or
// the ReLU stopped its gradient (a negative that won as a zero).
func (c *Conv2D) biasReLUPoolTrain(sums, out []float64, win []int32) {
	oh, ow := c.OutH(), c.OutW()
	ph, pw := oh/2, ow/2
	for oc, bias := range c.B {
		for py := 0; py < ph; py++ {
			base := (oc*oh + 2*py) * ow
			r0, r1 := sums[base:][:ow], sums[base+ow:][:ow]
			orow := out[(oc*ph+py)*pw:][:pw]
			wrow := win[(oc*ph+py)*pw:][:pw]
			for px := range orow {
				t0, t1 := r0[2*px]+bias, r0[2*px+1]+bias
				t2, t3 := r1[2*px]+bias, r1[2*px+1]+bias
				at := base + 2*px
				m := max(t0, t1, t2, t3)
				switch {
				case m > 0:
					// No NaN and something positive: the positives are
					// untouched by the ReLU and beat every zero it
					// makes, so the first cell equal to the largest is
					// the first strictly greater than all before it.
					k := ow + 1
					if t2 == m {
						k = ow
					}
					if t1 == m {
						k = 1
					}
					if t0 == m {
						k = 0
					}
					orow[px], wrow[px] = m, int32(at+k)
				case m <= 0:
					// No NaN and nothing positive: every cell is a zero
					// after the ReLU, the first wins from -Inf and no
					// zero is strictly greater than another.
					orow[px], wrow[px] = t0, int32(at)
					if t0 < 0 {
						orow[px], wrow[px] = 0, -1
					}
				default:
					orow[px], wrow[px] = reluPoolWindow([4]float64{t0, t1, t2, t3}, [4]int{at, at + 1, at + ow, at + ow + 1})
				}
			}
		}
	}
}

// reluPoolWindow is biasReLUPoolTrain's rule spelt out cell by cell, for
// the windows that hold a NaN.
func reluPoolWindow(t [4]float64, at [4]int) (float64, int32) {
	best, winner := math.Inf(-1), int32(-1)
	for k, v := range t {
		pass := !(v < 0)
		if !pass {
			v = 0
		}
		if v > best {
			best, winner = v, -1
			if pass {
				winner = int32(at[k])
			}
		}
	}
	return best, winner
}

// backward is Backward for forward, in one pass, grad being dL/d(the
// last run's output): for each sample, the last run's backward, which
// writes the sample's row of its convolution's dL/dInput, then the run
// before's from that row, down to the first, whose convolution forms its
// dL/dInput only under needDX. Every run's slots are left pending: the
// network's gradient pass (Network.finishGrads) adds them in.
func (ch convChain) backward(grad *tensor.Matrix, needDX bool) *tensor.Matrix {
	top, ex := grad, executors()
	for j := ch.runs() - 1; j >= 0; j-- {
		grad = ch.conv(j).beginBackward(grad, j > 0 || needDX, ex)
	}
	forSamples(top.Rows, ex, func(w, i int) {
		gi := top.Row(i)
		for j := ch.runs() - 1; j >= 0; j-- {
			c := ch.conv(j)
			c.backwardReLUPoolSample(w, i, gi, j > 0 || needDX)
			if j > 0 {
				gi = c.tr.dx.Row(i)
			}
		}
	})
	for j := 0; j < ch.runs(); j++ {
		ch.conv(j).tr.pending = top.Rows
	}
	return grad
}

// backwardReLUPoolSample is a run's Backward of sample i, on pool
// goroutine w, given gi, the sample's dL/d(pooled output). The sample's
// dL/dSums is rebuilt in w's scratch, cleared and then given its winners'
// gradients with the pool's own +=, which is what turns a -0 gradient
// into +0 in the separate layers: transposed for the weight gradient
// and, when needDX, also as it lies for the input gradient.
func (c *Conv2D) backwardReLUPoolSample(w, i int, gi []float64, needDX bool) {
	s, g := c.tr, c.geom()
	od, positions := c.OutDim(), g.oh*g.ow
	perCh := len(gi) / c.OutC
	gradT := s.gradTOf(w, od)
	clear(gradT)
	var dy []float64
	if needDX {
		dy = s.plane[w*od : (w+1)*od]
		clear(dy)
	}
	win := s.win[i*len(gi) : (i+1)*len(gi)]
	for oc := 0; oc < c.OutC; oc++ {
		for o := oc * perCh; o < (oc+1)*perCh; o++ {
			at := int(win[o])
			if at < 0 {
				continue
			}
			gradT[(at-oc*positions)*c.OutC+oc] += gi[o]
			if needDX {
				dy[at] += gi[o]
			}
		}
	}
	c.backwardSample(g, s, w, i, dy, needDX)
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	gbm, _ := tensor.FromSlice(1, c.OutC, c.gb)
	bm, _ := tensor.FromSlice(1, c.OutC, c.B)
	return []*Param{{W: c.W, G: c.gw}, {W: bm, G: gbm}}
}

// Clone implements Layer.
func (c *Conv2D) Clone() Layer {
	out := NewConv2D(c.InC, c.InH, c.InW, c.OutC, c.K, c.Pad)
	copy(out.W.Data, c.W.Data)
	copy(out.B, c.B)
	return out
}

// MaxPool2D is a non-overlapping max pool over (C, H, W) rows.
type MaxPool2D struct {
	C, H, W int
	Size    int

	tr *poolScratch
}

// poolScratch is a MaxPool2D's training scratch (see scratch.go);
// argmax holds, per sample and output element, the winning input index.
type poolScratch struct {
	out, dx *tensor.Matrix
	argmax  []int
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D constructs a pool layer; H and W must be divisible by size.
func NewMaxPool2D(c, h, w, size int) *MaxPool2D {
	if size <= 0 || h%size != 0 || w%size != 0 {
		panic(fmt.Sprintf("nn: maxpool %dx%d not divisible by %d", h, w, size))
	}
	return &MaxPool2D{C: c, H: h, W: w, Size: size}
}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return fmt.Sprintf("maxpool(%d)", m.Size) }

// OutDim implements Layer.
func (m *MaxPool2D) OutDim() int { return m.C * (m.H / m.Size) * (m.W / m.Size) }

func (m *MaxPool2D) dropScratch() { m.tr = nil }

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Matrix) *tensor.Matrix {
	checkCols(m, m.C*m.H*m.W, x.Cols)
	oh, ow := m.H/m.Size, m.W/m.Size
	od := m.OutDim()
	if m.tr == nil {
		m.tr = &poolScratch{}
	}
	s := m.tr
	s.out = sized(s.out, x.Rows, od)
	s.argmax = grow(s.argmax, x.Rows*od)
	forRows(x.Rows, x.Cols, func(i int) {
		src := x.Row(i)
		dst := s.out.Row(i)
		for ch := 0; ch < m.C; ch++ {
			chOff := ch * m.H * m.W
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := math.Inf(-1)
					bestIdx := -1
					for dy := 0; dy < m.Size; dy++ {
						row := chOff + (oy*m.Size+dy)*m.W
						for dx := 0; dx < m.Size; dx++ {
							idx := row + ox*m.Size + dx
							if src[idx] > best {
								best = src[idx]
								bestIdx = idx
							}
						}
					}
					o := (ch*oh+oy)*ow + ox
					dst[o] = best
					s.argmax[i*od+o] = bestIdx
				}
			}
		}
	})
	return s.out
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(grad *tensor.Matrix) *tensor.Matrix {
	s := m.tr
	if s == nil || len(s.argmax) != len(grad.Data) {
		panic("nn: MaxPool2D.Backward without training Forward")
	}
	s.dx = sized(s.dx, grad.Rows, m.C*m.H*m.W)
	od := m.OutDim()
	forRows(grad.Rows, s.dx.Cols, func(i int) {
		g := grad.Row(i)
		d := s.dx.Row(i)
		clear(d)
		for o, idx := range s.argmax[i*od : (i+1)*od] {
			if idx >= 0 { // an all-NaN window has no winner
				d[idx] += g[o]
			}
		}
	})
	return s.dx
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// Clone implements Layer.
func (m *MaxPool2D) Clone() Layer { return NewMaxPool2D(m.C, m.H, m.W, m.Size) }
