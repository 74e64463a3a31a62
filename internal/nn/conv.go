package nn

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/golitho/hsd/internal/tensor"
)

// Conv2D is a 2-D convolution over (C, H, W) channel-major flattened rows.
type Conv2D struct {
	InC, InH, InW  int
	OutC           int
	K, Stride, Pad int

	W *tensor.Matrix // OutC x (InC*K*K)
	B []float64

	gw *tensor.Matrix
	gb []float64
	tr *convScratch
	// taps addresses the inference product's right-hand rows (see
	// fused.go); built once here, read-only, shared by concurrent
	// scorers. Empty when Stride != 1.
	taps tensor.RowTable
}

// convScratch is what one training step of a Conv2D keeps between
// Forward and Backward and hands to its neighbours (see scratch.go).
type convScratch struct {
	// cols holds sample i's im2col matrix (klen x positions, row-major)
	// at [i*klen*positions:]: gathered by Forward, read by Backward.
	cols []float64
	out  *tensor.Matrix

	// gwSlot and gbSlot hold sample i's weight- and bias-gradient
	// partials at [i*OutC*klen:] and [i*OutC:]. Pool goroutines fill
	// them concurrently; backward then adds them into gw and gb in
	// ascending sample order, the order the serial loop summed in, so
	// the gradients do not depend on which goroutine took which sample.
	gwSlot, gbSlot []float64

	dx *tensor.Matrix
	wT *tensor.Matrix
	// band holds, per pool goroutine, a K*K x positions slice of
	// Wᵀ·grad: one input channel at a time on its way through col2im.
	band []float64
	// tb holds, per pool goroutine, the transposes grad_i · cols_iᵀ
	// goes through (tensor.MatMulTransBInto).
	tb [][]float64
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D constructs a convolution layer. It panics when the geometry
// does not produce a positive output size (a wiring error).
func NewConv2D(inC, inH, inW, outC, k, stride, pad int) *Conv2D {
	c := &Conv2D{
		InC: inC, InH: inH, InW: inW,
		OutC: outC, K: k, Stride: stride, Pad: pad,
		W:  tensor.NewMatrix(outC, inC*k*k),
		B:  make([]float64, outC),
		gw: tensor.NewMatrix(outC, inC*k*k),
		gb: make([]float64, outC),
	}
	if c.OutH() <= 0 || c.OutW() <= 0 {
		panic(fmt.Sprintf("nn: conv %dx%dx%d k=%d s=%d p=%d yields empty output",
			inC, inH, inW, k, stride, pad))
	}
	if stride == 1 {
		c.taps = c.geom().tapTable()
	}
	return c
}

// OutH returns the output height.
func (c *Conv2D) OutH() int { return (c.InH+2*c.Pad-c.K)/c.Stride + 1 }

// OutW returns the output width.
func (c *Conv2D) OutW() int { return (c.InW+2*c.Pad-c.K)/c.Stride + 1 }

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
		oy0, oy1 := validRange(g.oh, g.stride, ky, g.pad, g.inH)
		for kx := 0; kx < g.k; kx++ {
			ox0, ox1 := validRange(g.ow, g.stride, kx, g.pad, g.inW)
			src := band[(ky*g.k+kx)*positions:][:positions]
			for oy := oy0; oy < oy1; oy++ {
				drow := dst[chOff+(oy*g.stride+ky-g.pad)*g.inW:][:g.inW]
				srow := src[oy*g.ow : (oy+1)*g.ow]
				for ox := ox0; ox < ox1; ox++ {
					drow[ox*g.stride+kx-g.pad] += srow[ox]
				}
			}
		}
	}
}

// Forward implements Layer: per sample, the full-height im2col gather
// and one blocked matmul written straight into the sample's output row,
// with the batch's samples spread over the kernel pool. Samples are
// independent, so the output does not depend on who computed which.
func (c *Conv2D) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	checkCols(c, c.InC*c.InH*c.InW, x.Cols)
	g := c.geom()
	csz := c.W.Cols * g.oh * g.ow
	ex := executors()
	// Column matrices: one per sample, kept for Backward, when training;
	// one per pool goroutine otherwise.
	var out *tensor.Matrix
	var cache []float64
	if train {
		if c.tr == nil {
			c.tr = &convScratch{}
		}
		s := c.tr
		s.out = sized(s.out, x.Rows, c.OutDim())
		s.cols = grow(s.cols, x.Rows*csz)
		out, cache = s.out, s.cols
	} else {
		out = tensor.NewMatrix(x.Rows, c.OutDim())
		cache = make([]float64, ex*csz)
	}
	forSamples(x.Rows, ex, func(w, i int) {
		at := w
		if train {
			at = i
		}
		c.im2colSums(g, x.Row(i), cache[at*csz:(at+1)*csz], out.Row(i))
		c.addBias(out.Row(i))
	})
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Matrix) *tensor.Matrix { return c.backward(grad, true) }

// backwardParams implements paramGrader.
func (c *Conv2D) backwardParams(grad *tensor.Matrix) { c.backward(grad, false) }

// backward accumulates dL/dW and dL/db and, when needDX, returns
// dL/dInput. Samples are spread over the kernel pool; see convScratch
// for why the result does not depend on who computed which.
func (c *Conv2D) backward(grad *tensor.Matrix, needDX bool) *tensor.Matrix {
	s := c.tr
	if s == nil || s.out.Rows != grad.Rows {
		panic("nn: Conv2D.Backward without training Forward")
	}
	rows := grad.Rows
	g := c.geom()
	klen, positions := c.W.Cols, g.oh*g.ow
	csz, wsz := klen*positions, c.OutC*klen
	s.gwSlot = grow(s.gwSlot, rows*wsz)
	s.gbSlot = grow(s.gbSlot, rows*c.OutC)
	ex := executors()
	if len(s.tb) < ex {
		s.tb = make([][]float64, ex)
	}
	kk := c.K * c.K
	var dx *tensor.Matrix
	if needDX {
		s.dx = sized(s.dx, rows, c.InC*c.InH*c.InW)
		s.dx.Zero() // col2im accumulates
		s.wT = transposeInto(s.wT, c.W)
		s.band = grow(s.band, ex*kk*positions)
		dx = s.dx
	}
	forSamples(rows, ex, func(w, i int) {
		gm := tensor.Matrix{Rows: c.OutC, Cols: positions, Data: grad.Row(i)}
		for oc := 0; oc < c.OutC; oc++ {
			var sum float64
			for _, v := range gm.Row(oc) {
				sum += v
			}
			s.gbSlot[i*c.OutC+oc] = sum
		}
		// dW partial = grad_i · cols_iᵀ
		cols := tensor.Matrix{Rows: klen, Cols: positions, Data: s.cols[i*csz : (i+1)*csz]}
		slot := tensor.Matrix{Rows: c.OutC, Cols: klen, Data: s.gwSlot[i*wsz : (i+1)*wsz]}
		s.tb[w] = tensor.MatMulTransBInto(&slot, &gm, &cols, s.tb[w])
		if !needDX {
			return
		}
		// dCols = Wᵀ · grad_i, one input channel's rows at a time,
		// scattered back while the band is cache-hot.
		band := tensor.Matrix{Rows: kk, Cols: positions, Data: s.band[w*kk*positions : (w+1)*kk*positions]}
		for ch := 0; ch < c.InC; ch++ {
			wTch := tensor.Matrix{Rows: kk, Cols: c.OutC, Data: s.wT.Data[ch*kk*c.OutC : (ch+1)*kk*c.OutC]}
			tensor.MatMulInto(&band, &wTch, &gm)
			col2imChannel(g, ch, band.Data, dx.Row(i))
		}
	})
	for i := 0; i < rows; i++ {
		for oc := range c.gb {
			c.gb[oc] += s.gbSlot[i*c.OutC+oc]
		}
		for j, v := range s.gwSlot[i*wsz : (i+1)*wsz] {
			c.gw.Data[j] += v
		}
	}
	return dx
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	gbm, _ := tensor.FromSlice(1, c.OutC, c.gb)
	bm, _ := tensor.FromSlice(1, c.OutC, c.B)
	return []*Param{{W: c.W, G: c.gw}, {W: bm, G: gbm}}
}

// Clone implements Layer.
func (c *Conv2D) Clone() Layer {
	out := NewConv2D(c.InC, c.InH, c.InW, c.OutC, c.K, c.Stride, c.Pad)
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
func (m *MaxPool2D) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	checkCols(m, m.C*m.H*m.W, x.Cols)
	oh, ow := m.H/m.Size, m.W/m.Size
	od := m.OutDim()
	var out *tensor.Matrix
	var argmax []int
	if train {
		if m.tr == nil {
			m.tr = &poolScratch{}
		}
		s := m.tr
		s.out = sized(s.out, x.Rows, od)
		s.argmax = grow(s.argmax, x.Rows*od)
		out, argmax = s.out, s.argmax
	} else {
		out = tensor.NewMatrix(x.Rows, od)
	}
	forRows(x.Rows, x.Cols, func(i int) {
		src := x.Row(i)
		dst := out.Row(i)
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
					if train {
						argmax[i*od+o] = bestIdx
					}
				}
			}
		}
	})
	return out
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
			d[idx] += g[o]
		}
	})
	return s.dx
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// Clone implements Layer.
func (m *MaxPool2D) Clone() Layer { return NewMaxPool2D(m.C, m.H, m.W, m.Size) }
