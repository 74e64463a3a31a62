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

	gw   *tensor.Matrix
	gb   []float64
	cols []*tensor.Matrix // per-sample im2col cache
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

// im2col unrolls one flattened sample into a (InC*K*K) x (OutH*OutW)
// matrix whose columns are receptive fields.
func (c *Conv2D) im2col(sample []float64) *tensor.Matrix {
	oh, ow := c.OutH(), c.OutW()
	cols := tensor.NewMatrix(c.InC*c.K*c.K, oh*ow)
	for ch := 0; ch < c.InC; ch++ {
		chOff := ch * c.InH * c.InW
		for ky := 0; ky < c.K; ky++ {
			for kx := 0; kx < c.K; kx++ {
				rowIdx := (ch*c.K+ky)*c.K + kx
				dst := cols.Row(rowIdx)
				for oy := 0; oy < oh; oy++ {
					iy := oy*c.Stride + ky - c.Pad
					if iy < 0 || iy >= c.InH {
						continue
					}
					srcRow := chOff + iy*c.InW
					for ox := 0; ox < ow; ox++ {
						ix := ox*c.Stride + kx - c.Pad
						if ix < 0 || ix >= c.InW {
							continue
						}
						dst[oy*ow+ox] = sample[srcRow+ix]
					}
				}
			}
		}
	}
	return cols
}

// col2im scatters column gradients back into a flattened sample gradient.
func (c *Conv2D) col2im(cols *tensor.Matrix, dst []float64) {
	oh, ow := c.OutH(), c.OutW()
	for ch := 0; ch < c.InC; ch++ {
		chOff := ch * c.InH * c.InW
		for ky := 0; ky < c.K; ky++ {
			for kx := 0; kx < c.K; kx++ {
				rowIdx := (ch*c.K+ky)*c.K + kx
				src := cols.Row(rowIdx)
				for oy := 0; oy < oh; oy++ {
					iy := oy*c.Stride + ky - c.Pad
					if iy < 0 || iy >= c.InH {
						continue
					}
					dstRow := chOff + iy*c.InW
					for ox := 0; ox < ow; ox++ {
						ix := ox*c.Stride + kx - c.Pad
						if ix < 0 || ix >= c.InW {
							continue
						}
						dst[dstRow+ix] += src[oy*ow+ox]
					}
				}
			}
		}
	}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	checkCols(c, c.InC*c.InH*c.InW, x.Cols)
	oh, ow := c.OutH(), c.OutW()
	out := tensor.NewMatrix(x.Rows, c.OutDim())
	if train {
		c.cols = make([]*tensor.Matrix, x.Rows)
	} else {
		c.cols = nil
	}
	prod := tensor.NewMatrix(c.OutC, oh*ow)
	for i := 0; i < x.Rows; i++ {
		cols := c.im2col(x.Row(i))
		if train {
			c.cols[i] = cols
		}
		tensor.MatMulInto(prod, c.W, cols)
		dst := out.Row(i)
		for oc := 0; oc < c.OutC; oc++ {
			bias := c.B[oc]
			src := prod.Row(oc)
			base := oc * oh * ow
			for p, v := range src {
				dst[base+p] = v + bias
			}
		}
	}
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if c.cols == nil {
		panic("nn: Conv2D.Backward without training Forward")
	}
	oh, ow := c.OutH(), c.OutW()
	dx := tensor.NewMatrix(grad.Rows, c.InC*c.InH*c.InW)
	gradSample := tensor.NewMatrix(c.OutC, oh*ow)
	wT := c.W.Transpose()
	dcols := tensor.NewMatrix(c.W.Cols, oh*ow)
	gwPart := tensor.NewMatrix(c.OutC, c.W.Cols)
	for i := 0; i < grad.Rows; i++ {
		g := grad.Row(i)
		for oc := 0; oc < c.OutC; oc++ {
			src := g[oc*oh*ow : (oc+1)*oh*ow]
			copy(gradSample.Row(oc), src)
			var s float64
			for _, v := range src {
				s += v
			}
			c.gb[oc] += s
		}
		// dW += gradSample * cols^T
		tensor.MatMulInto(gwPart, gradSample, c.cols[i].Transpose())
		if err := tensor.Axpy(1, gwPart, c.gw); err != nil {
			panic(err)
		}
		// dCols = W^T * gradSample; scatter back.
		tensor.MatMulInto(dcols, wT, gradSample)
		c.col2im(dcols, dx.Row(i))
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

	argmax [][]int // per sample, per output element: input index
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

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	checkCols(m, m.C*m.H*m.W, x.Cols)
	oh, ow := m.H/m.Size, m.W/m.Size
	out := tensor.NewMatrix(x.Rows, m.OutDim())
	if train {
		m.argmax = make([][]int, x.Rows)
	} else {
		m.argmax = nil
	}
	for i := 0; i < x.Rows; i++ {
		src := x.Row(i)
		dst := out.Row(i)
		var am []int
		if train {
			am = make([]int, m.OutDim())
			m.argmax[i] = am
		}
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
						am[o] = bestIdx
					}
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if m.argmax == nil {
		panic("nn: MaxPool2D.Backward without training Forward")
	}
	dx := tensor.NewMatrix(grad.Rows, m.C*m.H*m.W)
	for i := 0; i < grad.Rows; i++ {
		g := grad.Row(i)
		d := dx.Row(i)
		for o, idx := range m.argmax[i] {
			d[idx] += g[o]
		}
	}
	return dx
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// Clone implements Layer.
func (m *MaxPool2D) Clone() Layer { return NewMaxPool2D(m.C, m.H, m.W, m.Size) }
