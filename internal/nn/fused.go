// Column-free convolution.
//
// A stride-1 convolution multiplies its input where it lies, scoring and
// training alike. The sample is copied once into a zero-bordered
// (C, H+2p, W+2p) buffer; tap t = (ch, ky, kx) of output row oy is then
// the contiguous run of OutW elements starting at
// ((ch*PH + oy + ky)*PW + kx), so one addressed product per output row
// (tensor.MatMulAddressedInto: OutC x InC*K*K weights over rows found
// through the layer's tap table) writes the sample's output directly. No
// column matrix is gathered and no product is copied out of a scratch
// tile. The weight gradient reads the same runs from the other side
// (paddedWeightGrad), which is why training keeps the bordered copy and
// not the columns.
//
// Bit-identity with the gathered formulation (im2col + matmul: the eval
// Forward, and the training pass at other strides) holds exactly, not
// approximately. Row t of the im2col matrix, restricted to output row
// oy, is that same run: the in-image cells are the sample's and the
// cells im2col writes as explicit zeros are the border's zeros, in the
// same places of each sum. Both formulations then contract the full k
// range on the one kernel, in ascending (ch, ky, kx), one rounded
// product and one add at a time from zero. Strides other than 1 (no
// shipped network has one) take the gathered formulation, im2colSums.

package nn

import "github.com/golitho/hsd/internal/tensor"

// convGeom is a convolution's geometry, precomputed once per pass.
type convGeom struct {
	inC, inH, inW  int
	outC           int
	k, stride, pad int
	oh, ow         int
}

func (c *Conv2D) geom() convGeom {
	return convGeom{
		inC: c.InC, inH: c.InH, inW: c.InW,
		outC: c.OutC, k: c.K, stride: c.Stride, pad: c.Pad,
		oh: c.OutH(), ow: c.OutW(),
	}
}

// tapTable is where the k = InC*K*K taps of output row 0 start in the
// zero-bordered sample, in the weight matrix's column order; output row
// oy reads the same offsets from oy rows further down. Stride 1 only.
func (g convGeom) tapTable() tensor.RowTable {
	ph, pw := g.inH+2*g.pad, g.inW+2*g.pad
	off := make([]int, 0, g.inC*g.k*g.k)
	for ch := 0; ch < g.inC; ch++ {
		for ky := 0; ky < g.k; ky++ {
			for kx := 0; kx < g.k; kx++ {
				off = append(off, (ch*ph+ky)*pw+kx)
			}
		}
	}
	return tensor.NewRowTable(off)
}

// gradRowTable is where the OutW rows of one output row's slice of a
// sample's transposed gradient (positions x OutC) start: the right
// operand of paddedWeightGrad's products.
func (g convGeom) gradRowTable() tensor.RowTable {
	off := make([]int, g.ow)
	for ox := range off {
		off[ox] = ox * g.outC
	}
	return tensor.NewRowTable(off)
}

// paddedLen is the length of one zero-bordered sample.
func (g convGeom) paddedLen() int { return g.inC * (g.inH + 2*g.pad) * (g.inW + 2*g.pad) }

// padSample copies one flattened (C, H, W) sample into the middle of
// dst, a (C, H+2p, W+2p) buffer, and zeroes the border. Every cell of
// dst is written: it comes from an arena, whose contents are unspecified.
func padSample(g convGeom, sample, dst []float64) {
	pw := g.inW + 2*g.pad
	clear(dst)
	for ch := 0; ch < g.inC; ch++ {
		plane := dst[ch*(g.inH+2*g.pad)*pw:]
		for y := 0; y < g.inH; y++ {
			copy(plane[(y+g.pad)*pw+g.pad:][:g.inW], sample[(ch*g.inH+y)*g.inW:])
		}
	}
}

// inferSums computes every sample's convolution sums, bias not yet
// added, into an arena matrix laid out like the layer's output.
func (c *Conv2D) inferSums(x *tensor.Matrix, ar *Arena) *tensor.Matrix {
	checkCols(c, c.InC*c.InH*c.InW, x.Cols)
	g := c.geom()
	positions := g.oh * g.ow
	out := ar.get(x.Rows, c.OutDim())
	if g.stride != 1 {
		cols := ar.get(c.W.Cols, positions)
		for i := 0; i < x.Rows; i++ {
			c.im2colSums(g, x.Row(i), cols.Data, out.Row(i))
		}
		return out
	}
	padded := ar.get(1, g.paddedLen()).Data
	for i := 0; i < x.Rows; i++ {
		padSample(g, x.Row(i), padded)
		c.paddedSums(g, padded, out.Row(i))
	}
	return out
}

// paddedSums computes one sample's sums, bias not yet added, from its
// zero-bordered copy: one addressed product per output row. Stride 1 only.
func (c *Conv2D) paddedSums(g convGeom, padded, dst []float64) {
	pw, positions := g.inW+2*g.pad, g.oh*g.ow
	for oy := 0; oy < g.oh; oy++ {
		tensor.MatMulAddressedInto(dst[oy*g.ow:], positions, c.W.Data, c.OutC, padded[oy*pw:], c.taps, g.ow)
	}
}

// paddedWeightGrad computes one sample's weight-gradient partial,
// transposed: dwT (InC*K*K x OutC) = cols · gradT, where gradT is the
// sample's dL/dSums transposed (positions x OutC) and cols is the column
// matrix im2col would gather, read where it lies in the zero-bordered
// copy. Row t = (ch, ky, kx) of cols, restricted to output row oy, is
// the run of OutW cells at padded[(ch*PH + oy + ky)*PW + kx]: for one tap
// the InC channel rows are a left operand of row stride PH*PW, the right
// operand is the OutW rows of gradT for that oy, and the product lands
// in rows ch*K*K + tap of dwT, carried on down oy. Each sum therefore
// starts at zero and takes its products in ascending position, one
// rounded product and one add at a time: the bits of cols · gradT on the
// gathered matrix. Stride 1 only.
func (c *Conv2D) paddedWeightGrad(g convGeom, padded, gradT, dwT []float64) {
	ph, pw := g.inH+2*g.pad, g.inW+2*g.pad
	kk := g.k * g.k
	for oy := 0; oy < g.oh; oy++ {
		rows := gradT[oy*g.ow*g.outC:]
		for ky := 0; ky < g.k; ky++ {
			for kx := 0; kx < g.k; kx++ {
				tensor.MatMulStridedInto(dwT[(ky*g.k+kx)*g.outC:], kk*g.outC,
					padded[(oy+ky)*pw+kx:], ph*pw, g.inC, rows, c.gradRows, g.outC, oy > 0)
			}
		}
	}
}

// forwardInfer implements inferencer.
func (c *Conv2D) forwardInfer(x *tensor.Matrix, ar *Arena) *tensor.Matrix {
	out := c.inferSums(x, ar)
	for i := 0; i < out.Rows; i++ {
		c.addBias(out.Row(i))
	}
	return out
}

// forwardInferReLUPool is c.forwardInfer, ReLU.forwardInfer and a 2x2
// MaxPool2D.forwardInfer in one pass over the sums: each output is the
// largest positive v + bias of its window, or +0 when none is positive.
//
// That is the three passes' pool(relu(v + bias)) to the bit. The
// inference ReLU (reluInto) maps NaN, -0 and everything negative to +0
// and leaves positives alone, so the pool, whose > from -Inf never
// selects a NaN, is handed four values that are +0 or positive and
// returns the largest: max and this ReLU commute for every input. The
// builtin max finds it without a branch in any window free of NaN (0 is
// among its arguments, and max(-0, 0) is +0); it answers NaN when a
// window holds one, and that window takes the explicit > rule.
// TestConvReLUPoolTailBits holds the pass to the three layers on NaN,
// both zeros, both infinities and all-negative windows.
func (c *Conv2D) forwardInferReLUPool(x *tensor.Matrix, ar *Arena) *tensor.Matrix {
	return c.biasReLUPool(c.inferSums(x, ar), ar)
}

// biasReLUPool is forwardInferReLUPool's pass over the sums.
func (c *Conv2D) biasReLUPool(sums *tensor.Matrix, ar *Arena) *tensor.Matrix {
	oh, ow := c.OutH(), c.OutW()
	ph, pw := oh/2, ow/2
	out := ar.get(sums.Rows, c.OutC*ph*pw)
	for i := 0; i < sums.Rows; i++ {
		src, dst := sums.Row(i), out.Row(i)
		for oc, bias := range c.B {
			for py := 0; py < ph; py++ {
				r0 := src[(oc*oh+2*py)*ow:][:ow]
				r1 := src[(oc*oh+2*py+1)*ow:][:ow]
				drow := dst[(oc*ph+py)*pw:][:pw]
				for px := range drow {
					t0, t1 := r0[2*px]+bias, r0[2*px+1]+bias
					t2, t3 := r1[2*px]+bias, r1[2*px+1]+bias
					m := max(t0, t1, t2, t3, 0)
					if m != m {
						m = 0
						for _, t := range [4]float64{t0, t1, t2, t3} {
							if t > m {
								m = t
							}
						}
					}
					drow[px] = m
				}
			}
		}
	}
	return out
}

// convReLUPoolAt returns layer i when it is a Conv2D directly followed
// by a ReLU and a 2x2 MaxPool2D over exactly its output, the run
// forwardInferReLUPool and forwardTrainReLUPool replace; nil otherwise.
func (n *Network) convReLUPoolAt(i int) *Conv2D {
	if i < 0 || i+2 >= len(n.Layers) {
		return nil
	}
	c, isConv := n.Layers[i].(*Conv2D)
	r, isReLU := n.Layers[i+1].(*ReLU)
	p, isPool := n.Layers[i+2].(*MaxPool2D)
	if !isConv || !isReLU || !isPool || r.Dim != c.OutDim() ||
		p.Size != 2 || p.C != c.OutC || p.H != c.OutH() || p.W != c.OutW() {
		return nil
	}
	return c
}

// validRange returns the contiguous output index range [lo, hi) of outN
// positions whose input coordinate o*stride + k - pad lies inside
// [0, size). Positions outside the range read only zero padding for
// this tap.
func validRange(outN, stride, k, pad, size int) (int, int) {
	lo := 0
	if d := pad - k; d > 0 {
		lo = (d + stride - 1) / stride
	}
	num := size - 1 + pad - k
	if num < 0 {
		return 0, 0
	}
	hi := num/stride + 1
	if hi > outN {
		hi = outN
	}
	if lo >= hi {
		return 0, 0
	}
	return lo, hi
}

// im2col gathers one flattened (C, H, W) sample into its column matrix:
// row r = (ch*K+ky)*K+kx, column oy*OutW+ox, row-major. Every cell is
// written, out-of-image taps as explicit zeros, so the buffer needs no
// per-sample reset. Stride-1 interiors reduce to contiguous copies.
func im2col(g convGeom, sample, cols []float64) {
	positions := g.oh * g.ow
	rowIdx := 0
	for ch := 0; ch < g.inC; ch++ {
		chOff := ch * g.inH * g.inW
		for ky := 0; ky < g.k; ky++ {
			for kx := 0; kx < g.k; kx++ {
				dst := cols[rowIdx*positions : (rowIdx+1)*positions]
				rowIdx++
				ox0, ox1 := validRange(g.ow, g.stride, kx, g.pad, g.inW)
				for oy := 0; oy < g.oh; oy++ {
					drow := dst[oy*g.ow : (oy+1)*g.ow]
					iy := oy*g.stride + ky - g.pad
					if iy < 0 || iy >= g.inH {
						for j := range drow {
							drow[j] = 0
						}
						continue
					}
					src := sample[chOff+iy*g.inW : chOff+(iy+1)*g.inW]
					for j := 0; j < ox0; j++ {
						drow[j] = 0
					}
					if g.stride == 1 {
						copy(drow[ox0:ox1], src[ox0+kx-g.pad:])
					} else {
						for ox := ox0; ox < ox1; ox++ {
							drow[ox] = src[ox*g.stride+kx-g.pad]
						}
					}
					for j := ox1; j < g.ow; j++ {
						drow[j] = 0
					}
				}
			}
		}
	}
}

// im2colSums is the gathered formulation of one sample: its column
// matrix into cols, then the sums W * cols, bias not yet added, into dst.
func (c *Conv2D) im2colSums(g convGeom, sample, cols, dst []float64) {
	im2col(g, sample, cols)
	positions := g.oh * g.ow
	colsM := tensor.Matrix{Rows: c.W.Cols, Cols: positions, Data: cols[:c.W.Cols*positions]}
	prod := tensor.Matrix{Rows: c.OutC, Cols: positions, Data: dst}
	tensor.MatMulInto(&prod, c.W, &colsM)
}

// addBias adds each output channel's bias to its positions of one
// sample's sums.
func (c *Conv2D) addBias(row []float64) {
	positions := len(row) / c.OutC
	for oc, bias := range c.B {
		seg := row[oc*positions:][:positions]
		for p := range seg {
			seg[p] += bias
		}
	}
}
