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
	// x is the last training Forward's input, borrowed from the caller.
	// padded holds sample i's zero-bordered copy at [i*InC*PH*PW:], the
	// operand Forward's sums and Backward's weight gradient both
	// multiply where it lies.
	x      *tensor.Matrix
	padded []float64
	out    *tensor.Matrix

	// The one-pass tail (forwardTrainReLUPool). win holds, per sample and
	// pooled cell, the index in the sample's OutC x positions plane of the
	// cell its gradient goes to, or -1 when it goes nowhere. plane is one
	// such plane per pool goroutine: a sample's sums on the way forward,
	// its dL/dSums on the way back.
	win   []int32
	plane []float64

	// gwSlot and gbSlot hold sample i's weight- and bias-gradient
	// partials at [i*klen*OutC:] and [i*OutC:], the first transposed
	// (klen x OutC, as the kernel produces it). Pool goroutines fill
	// them concurrently; sumSlots then adds them into gw and gb in
	// ascending sample order, the order the serial loop summed in, so
	// the gradients do not depend on which goroutine took which sample.
	// gwT is gw transposed while the slots are added to it.
	gwSlot, gbSlot []float64
	gwT            *tensor.Matrix

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
// which each dst cell must take its terms.
func col2imChannel(g convGeom, ch int, band, dst []float64) {
	positions := g.oh * g.ow
	chOff := ch * g.inH * g.inW
	for ky := 0; ky < g.k; ky++ {
		oy0, oy1 := validRange(g.oh, ky, g.pad, g.inH)
		for kx := 0; kx < g.k; kx++ {
			ox0, ox1 := validRange(g.ow, kx, g.pad, g.inW)
			src := band[(ky*g.k+kx)*positions:][:positions]
			for oy := oy0; oy < oy1; oy++ {
				drow := dst[chOff+(oy+ky-g.pad)*g.inW:][:g.inW]
				srow := src[oy*g.ow : (oy+1)*g.ow]
				for ox := ox0; ox < ox1; ox++ {
					drow[ox+kx-g.pad] += srow[ox]
				}
			}
		}
	}
}

// Forward implements Layer, with the batch's samples spread over the
// kernel pool. Samples are independent, so the output does not depend on
// who computed which.
func (c *Conv2D) Forward(x *tensor.Matrix) *tensor.Matrix {
	checkCols(c, c.InC*c.InH*c.InW, x.Cols)
	g := c.geom()
	s := c.beginTrain(g, x)
	s.out = sized(s.out, x.Rows, c.OutDim())
	forSamples(x.Rows, executors(), func(_, i int) {
		c.trainSums(g, s, i, s.out.Row(i))
		c.addBias(s.out.Row(i))
	})
	return s.out
}

// beginTrain sizes what a training Forward over x keeps for Backward.
func (c *Conv2D) beginTrain(g convGeom, x *tensor.Matrix) *convScratch {
	if c.tr == nil {
		c.tr = &convScratch{}
	}
	s := c.tr
	s.x = x
	s.padded = grow(s.padded, x.Rows*g.paddedLen())
	return s
}

// trainSums computes sample i's sums, bias not yet added, into dst: the
// inference formulation (fused.go) over a zero-bordered copy that stays
// behind for Backward.
func (c *Conv2D) trainSums(g convGeom, s *convScratch, i int, dst []float64) {
	psz := g.paddedLen()
	padded := s.padded[i*psz : (i+1)*psz]
	padSample(g, s.x.Row(i), padded)
	c.paddedSums(g, padded, dst)
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Matrix) *tensor.Matrix { return c.backward(grad, true) }

// backwardParams implements paramGrader.
func (c *Conv2D) backwardParams(grad *tensor.Matrix) { c.backward(grad, false) }

// backward accumulates dL/dW and dL/db and, when needDX, returns
// dL/dInput, given dL/dOutput of the last training Forward.
func (c *Conv2D) backward(grad *tensor.Matrix, needDX bool) *tensor.Matrix {
	s, g, ex := c.beginBackward(grad, needDX)
	forSamples(grad.Rows, ex, func(w, i int) {
		gm := tensor.Matrix{Rows: c.OutC, Cols: g.oh * g.ow, Data: grad.Row(i)}
		gm.TransposeInto(s.gradTOf(w, len(gm.Data)))
		c.backwardSample(g, s, w, i, gm.Data, needDX)
	})
	return c.sumSlots(s, grad.Rows, needDX)
}

// gradTOf is pool goroutine w's n-element stretch of s.gradT.
func (s *convScratch) gradTOf(w, n int) []float64 { return s.gradT[w*n : (w+1)*n] }

// beginBackward checks that grad is the gradient of what the last
// training Forward returned and sizes Backward's scratch.
func (c *Conv2D) beginBackward(grad *tensor.Matrix, needDX bool) (*convScratch, convGeom, int) {
	s := c.tr
	if s == nil || s.out.Rows != grad.Rows || s.out.Cols != grad.Cols {
		panic("nn: Conv2D.Backward without training Forward")
	}
	rows, ex := grad.Rows, executors()
	g := c.geom()
	klen, positions := c.W.Cols, g.oh*g.ow
	s.gwSlot = grow(s.gwSlot, rows*c.OutC*klen)
	s.gbSlot = grow(s.gbSlot, rows*c.OutC)
	s.gradT = grow(s.gradT, ex*positions*c.OutC)
	if needDX {
		s.dx = sized(s.dx, rows, c.InC*c.InH*c.InW)
		s.dx.Zero() // col2im accumulates
		s.wT = transposeInto(s.wT, c.W)
		s.band = grow(s.band, ex*c.K*c.K*positions)
	}
	return s, g, ex
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
	// db partial: each channel's sum over ascending positions, from zero.
	gb := s.gbSlot[i*c.OutC:][:c.OutC]
	clear(gb)
	for p := 0; p < positions; p++ {
		for oc, v := range gradT.Row(p) {
			gb[oc] += v
		}
	}
	// dW partial = grad_i · cols_iᵀ, left as its transpose
	// cols_i · grad_iᵀ: the kernel's lanes lie along OutC.
	psz := g.paddedLen()
	c.paddedWeightGrad(g, s.padded[i*psz:(i+1)*psz], gradT.Data, s.gwSlot[i*klen*c.OutC:][:klen*c.OutC])
	if !needDX {
		return
	}
	// dCols = Wᵀ · grad_i, one input channel's rows at a time,
	// scattered back while the band is cache-hot.
	gradM := tensor.Matrix{Rows: c.OutC, Cols: positions, Data: gm}
	band := tensor.Matrix{Rows: kk, Cols: positions, Data: s.band[w*kk*positions:][:kk*positions]}
	for ch := 0; ch < c.InC; ch++ {
		wTch := tensor.Matrix{Rows: kk, Cols: c.OutC, Data: s.wT.Data[ch*kk*c.OutC : (ch+1)*kk*c.OutC]}
		tensor.MatMulInto(&band, &wTch, &gradM)
		col2imChannel(g, ch, band.Data, s.dx.Row(i))
	}
}

// sumSlots adds the samples' gradient slots into gb and gw in ascending
// sample order and returns dL/dInput, nil unless needDX. The weight slots
// are transposed, so gw takes them through its own transpose: each
// element meets the same addends in the same order, and the batch pays
// two transposes where every sample paid one.
func (c *Conv2D) sumSlots(s *convScratch, rows int, needDX bool) *tensor.Matrix {
	wsz := c.OutC * c.W.Cols
	s.gwT = transposeInto(s.gwT, c.gw)
	for i := 0; i < rows; i++ {
		for oc := range c.gb {
			c.gb[oc] += s.gbSlot[i*c.OutC+oc]
		}
		for j, v := range s.gwSlot[i*wsz : (i+1)*wsz] {
			s.gwT.Data[j] += v
		}
	}
	s.gwT.TransposeInto(c.gw.Data)
	if !needDX {
		return nil
	}
	return s.dx
}

// forwardTrainReLUPool is the training Forward of c, the ReLU and the
// 2x2 MaxPool2D behind it (Network.convReLUPoolAt) in one pass: each
// sample's sums go through bias, ReLU and pool in the goroutine that
// formed them, while they are cache-hot, and what is kept for Backward is
// one index per pooled cell (convScratch.win). The full-size activation,
// the ReLU's mask, the pool's argmax and its input gradient are not
// materialised. Outputs and gradients are those of the three layers run
// one after another, to the bit (TestConvTrainTailBits).
func (c *Conv2D) forwardTrainReLUPool(x *tensor.Matrix) *tensor.Matrix {
	checkCols(c, c.InC*c.InH*c.InW, x.Cols)
	g := c.geom()
	ex := executors()
	od, pooled := c.OutDim(), c.OutDim()/4
	s := c.beginTrain(g, x)
	s.out = sized(s.out, x.Rows, pooled)
	s.win = grow(s.win, x.Rows*pooled)
	s.plane = grow(s.plane, ex*od)
	forSamples(x.Rows, ex, func(w, i int) {
		sums := s.plane[w*od : (w+1)*od]
		c.trainSums(g, s, i, sums)
		c.biasReLUPoolTrain(sums, s.out.Row(i), s.win[i*pooled:(i+1)*pooled])
	})
	return s.out
}

// biasReLUPoolTrain is forwardTrainReLUPool's pass over one sample's
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

// backwardReLUPool is Backward for forwardTrainReLUPool: grad is
// dL/d(pooled output). Each sample's dL/dSums is rebuilt in its
// goroutine's scratch, cleared and then given its winners' gradients
// with the pool's own +=, which is what turns a -0 gradient into +0 in
// the separate layers: transposed for the weight gradient and, when
// needDX, also as it lies for the input gradient.
func (c *Conv2D) backwardReLUPool(grad *tensor.Matrix, needDX bool) *tensor.Matrix {
	s, g, ex := c.beginBackward(grad, needDX)
	od, positions := c.OutDim(), g.oh*g.ow
	perCh := grad.Cols / c.OutC
	forSamples(grad.Rows, ex, func(w, i int) {
		gradT := s.gradTOf(w, od)
		clear(gradT)
		var dy []float64
		if needDX {
			dy = s.plane[w*od : (w+1)*od]
			clear(dy)
		}
		gi, win := grad.Row(i), s.win[i*grad.Cols:(i+1)*grad.Cols]
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
	})
	return c.sumSlots(s, grad.Rows, needDX)
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
