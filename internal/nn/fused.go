// Column-free convolution.
//
// A convolution (stride 1, the only one) multiplies its input where it
// lies, scoring and training alike. The sample is copied once into a
// zero-bordered (C, H+2p, W+2p) buffer; tap t = (ch, ky, kx) of output
// row oy is then the contiguous run of OutW elements starting at
// ((ch*PH + oy + ky)*PW + kx), so one addressed product per output row
// (tensor.MatMulAddressedInto: OutC x InC*K*K weights over rows found
// through the layer's tap table) writes the sample's output directly. No
// column matrix is gathered and no product is copied out of a scratch
// tile. The weight gradient reads the same runs from the other side
// (paddedWeightGrad), which is why training keeps the bordered copy and
// not the columns.
//
// Bit-identity with the gathered formulation (im2col + matmul, the
// reference the equivalence tests hold this one to) holds exactly, not
// approximately. Row t of the im2col matrix, restricted to output row
// oy, is that same run: the in-image cells are the sample's and the
// cells im2col writes as explicit zeros are the border's zeros, in the
// same places of each sum. Both formulations then contract the full k
// range on the one kernel, in ascending (ch, ky, kx), one rounded
// product and one add at a time from zero.

package nn

import (
	"math"

	"github.com/golitho/hsd/internal/tensor"
)

// convGeom is a convolution's geometry, precomputed once per pass.
type convGeom struct {
	inC, inH, inW int
	outC          int
	k, pad        int
	oh, ow        int
}

func (c *Conv2D) geom() convGeom {
	return convGeom{
		inC: c.InC, inH: c.InH, inW: c.InW,
		outC: c.OutC, k: c.K, pad: c.Pad,
		oh: c.OutH(), ow: c.OutW(),
	}
}

// tapTable is where the k = InC*K*K taps of output row 0 start in the
// zero-bordered sample, in the weight matrix's column order; output row
// oy reads the same offsets from oy rows further down.
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
	out := ar.get(x.Rows, c.OutDim())
	padded := ar.get(1, g.paddedLen()).Data
	for i := 0; i < x.Rows; i++ {
		padSample(g, x.Row(i), padded)
		c.paddedSums(g, padded, out.Row(i))
	}
	return out
}

// paddedSums computes one sample's sums, bias not yet added, from its
// zero-bordered copy: every output row of SumRows over it.
func (c *Conv2D) paddedSums(g convGeom, padded, dst []float64) {
	c.SumRows(dst, padded, c.taps, g.inW+2*g.pad, g.ow, 0, g.oh)
}

// SumRows computes output rows [r0, r1) of one sample's sums, bias not
// yet added, into dst, one addressed product per row: row r of output
// channel oc is the width cells at dst[oc*OutH*OutW + r*width:], and tap
// t of it is the width cells at plane[r*stride + taps[t]:], the taps in
// the weight matrix's column order. Over the zero-bordered sample with
// the layer's own table (stride W+2p, width OutW) the rows are the
// output's rows; over the bordered sample stored transposed, with
// TransposedTaps (stride H+2p, width OutH), they are its columns, and
// dst holds each channel's sums transposed. Each cell is the same sum
// either way: the same products in the same ascending tap order, from
// zero, so a caller may compute some rows and take the others from
// wherever the same sums were computed before.
func (c *Conv2D) SumRows(dst, plane []float64, taps tensor.RowTable, stride, width, r0, r1 int) {
	positions := c.OutH() * c.OutW()
	for r := r0; r < r1; r++ {
		tensor.MatMulAddressedInto(dst[r*width:], positions, c.W.Data, c.OutC, plane[r*stride:], taps, width)
	}
}

// TransposedTaps is the layer's tap table over a zero-bordered sample
// stored transposed, (C, W+2p, H+2p): element (ch, y, x) of the sample
// at ((ch*(W+2p) + x+p)*(H+2p) + y+p). It lists the taps in the order
// the layer's own table does, ascending (ch, ky, kx), so SumRows over
// it forms each sum as paddedSums does.
func (c *Conv2D) TransposedTaps() tensor.RowTable {
	ph, pw := c.InH+2*c.Pad, c.InW+2*c.Pad
	off := make([]int, 0, c.InC*c.K*c.K)
	for ch := 0; ch < c.InC; ch++ {
		for ky := 0; ky < c.K; ky++ {
			for kx := 0; kx < c.K; kx++ {
				off = append(off, (ch*pw+kx)*ph+ky)
			}
		}
	}
	return tensor.NewRowTable(off)
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
// gathered matrix.
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

// forwardInfer implements Layer.
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
// returns the largest: max and this ReLU commute for every input.
// reluPool finds it without a branch in any window free of a NaN whose
// sign bit is clear, and such a window takes the explicit > rule.
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
					drow[px] = reluPool(r0[2*px]+bias, r0[2*px+1]+bias, r1[2*px]+bias, r1[2*px+1]+bias)
				}
			}
		}
	}
	return out
}

// biasReLUPoolTransposed is biasReLUPool over one sample's sums held
// transposed (each channel OutW x OutH, as SumRows leaves them over a
// transposed plane), writing the pooled output as it lies. A pooled cell
// is reluPool of the same four values, met column-first instead of
// row-first, and neither of reluPool's rules depends on the order: the
// largest pattern is the largest whichever came first, and so is the
// largest positive the explicit > from +0 keeps.
func (c *Conv2D) biasReLUPoolTransposed(sumsT, dst []float64) {
	oh, ow := c.OutH(), c.OutW()
	ph, pw := oh/2, ow/2
	for oc, bias := range c.B {
		for px := 0; px < pw; px++ {
			c0 := sumsT[(oc*ow+2*px)*oh:][:oh]
			c1 := sumsT[(oc*ow+2*px+1)*oh:][:oh]
			for py := 0; py < ph; py++ {
				dst[(oc*ph+py)*pw+px] = reluPool(c0[2*py]+bias, c1[2*py]+bias, c0[2*py+1]+bias, c1[2*py+1]+bias)
			}
		}
	}
}

// reluPool is one pooled cell of forwardInferReLUPool: the largest
// positive of the four biased sums, or +0 when none is positive.
//
// It compares bit patterns as int64, which the compiler does with
// conditional moves: positive floats order as their patterns do, and
// every negative one, -0 among them, has the sign bit set and so loses
// to 0, the pattern of +0. The patterns above +Inf's are the NaNs with
// the sign bit clear, so a result above it means such a NaN won, and
// then the explicit > rule decides (reluPoolNaN). Otherwise the winner is the
// value the builtin max over the four and 0 would return, bit for bit:
// equal positive floats have equal patterns, and a window of nothing
// positive gives +0 either way.
func reluPool(t0, t1, t2, t3 float64) float64 {
	m := max(int64(math.Float64bits(t0)), int64(math.Float64bits(t1)),
		int64(math.Float64bits(t2)), int64(math.Float64bits(t3)), 0)
	if m <= posInfBits {
		return math.Float64frombits(uint64(m))
	}
	return reluPoolNaN(t0, t1, t2, t3)
}

// posInfBits is the pattern of +Inf, as an int64.
const posInfBits = 0x7FF0000000000000

// reluPoolNaN is reluPool spelt out, for the windows that hold a NaN.
func reluPoolNaN(t0, t1, t2, t3 float64) float64 {
	m := 0.0
	for _, t := range [4]float64{t0, t1, t2, t3} {
		if t > m {
			m = t
		}
	}
	return m
}

// FirstConv returns the network's first layer when it is a Conv2D
// followed by a ReLU and a 2x2 MaxPool2D over exactly its output, the
// layers ScoreConvSums stands for; nil otherwise.
func (n *Network) FirstConv() *Conv2D { return n.convReLUPoolAt(0) }

// convReLUPoolAt returns layer i when it is a Conv2D directly followed
// by a ReLU and a 2x2 MaxPool2D over exactly its output, the run
// forwardInferReLUPool and a convChain replace; nil otherwise.
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
// positions whose input coordinate o + k - pad lies inside [0, size).
// Positions outside the range read only zero padding for this tap.
func validRange(outN, k, pad, size int) (int, int) {
	lo, hi := max(pad-k, 0), min(size+pad-k, outN)
	if lo >= hi {
		return 0, 0
	}
	return lo, hi
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
