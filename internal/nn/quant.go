// Reduced-precision inference: Compress lowers a trained float64
// network into an inference-only copy whose Dense and Conv2D layers run
// float32 or int8 kernels.
//
// The compressed layers are immutable and stateless — they hold only
// converted weights, draw all scratch from the caller's Arena, and
// panic on any training entry point — so a compressed network is
// shareable across goroutines exactly like the float64 batched path.
// Interchange between layers stays float64 (activations widen on the
// way out of each compressed layer), which keeps ReLU, MaxPool2D,
// BatchNorm, and Dropout untouched.
//
// Neither reduced precision is bit-identical to the float64 path:
// deployments opt in per model through the quantization tolerance gate
// (registry.Gate), which bounds golden-set recall and false-alarm drift
// before a compressed network may serve. Int8 scores ARE deterministic
// across batch size and worker count — integer accumulation is exact,
// so there is no order sensitivity to begin with; float32 scores are
// deterministic because the float32 kernels share the serial
// accumulation contract of the float64 ones.

package nn

import (
	"fmt"

	"github.com/golitho/hsd/internal/tensor"
)

// Precision selects the kernel tier a network's inference runs at.
type Precision int

const (
	// Float64 is the training precision; inference is bit-identical to
	// the serial Score path.
	Float64 Precision = iota
	// Float32 halves weight and activation traffic; scores drift within
	// float32 rounding of the float64 path.
	Float32
	// Int8 runs symmetric per-row quantized kernels with exact int32
	// accumulation; scores drift within the quantization tolerance gate.
	Int8
)

// String implements fmt.Stringer; the forms parse back via ParsePrecision.
func (p Precision) String() string {
	switch p {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	case Int8:
		return "int8"
	}
	return fmt.Sprintf("precision(%d)", int(p))
}

// ParsePrecision parses a -precision flag value.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "float64", "f64", "fp64", "":
		return Float64, nil
	case "float32", "f32", "fp32":
		return Float32, nil
	case "int8", "i8":
		return Int8, nil
	}
	return Float64, fmt.Errorf("nn: unknown precision %q (want float64, float32, or int8)", s)
}

// Compress returns an inference-only copy of net at precision p. Dense
// and Conv2D layers are lowered to their float32 or int8 twins; layers
// without parameters are cloned unchanged. Float64 returns a plain
// Clone. The input network is never modified, and the returned network
// must not be trained or serialized — it exists to serve.
func Compress(net *Network, p Precision) (*Network, error) {
	if p == Float64 {
		return net.Clone(), nil
	}
	out := &Network{Layers: make([]Layer, len(net.Layers))}
	for i, l := range net.Layers {
		switch t := l.(type) {
		case *Dense:
			switch p {
			case Float32:
				out.Layers[i] = newDenseF32(t)
			case Int8:
				d, err := newDenseInt8(t)
				if err != nil {
					return nil, err
				}
				out.Layers[i] = d
			}
		case *Conv2D:
			switch p {
			case Float32:
				out.Layers[i] = newConv2DF32(t)
			case Int8:
				c, err := newConv2DInt8(t)
				if err != nil {
					return nil, err
				}
				out.Layers[i] = c
			}
		default:
			if _, ok := l.(inferencer); !ok {
				return nil, fmt.Errorf("nn: cannot compress layer %s to %s", l.Name(), p)
			}
			out.Layers[i] = l.Clone()
		}
	}
	return out, nil
}

// panicTrain is the shared guard of the compressed layers' training
// entry points.
func panicTrain(name string) {
	panic(fmt.Sprintf("nn: %s is inference-only; train the float64 network and re-Compress", name))
}

// DenseF32 is the float32 inference twin of Dense: y = widen(f32(x)*W + b).
type DenseF32 struct {
	In, Out int
	W       *tensor.Matrix32 // In x Out
	B       []float32
}

var _ Layer = (*DenseF32)(nil)

func newDenseF32(d *Dense) *DenseF32 {
	b := make([]float32, len(d.B))
	for i, v := range d.B {
		b[i] = float32(v)
	}
	return &DenseF32{In: d.In, Out: d.Out, W: d.W.ToFloat32(), B: b}
}

// Name implements Layer.
func (d *DenseF32) Name() string { return fmt.Sprintf("dense32(%dx%d)", d.In, d.Out) }

// OutDim implements Layer.
func (d *DenseF32) OutDim() int { return d.Out }

// Forward implements Layer; eval mode only.
func (d *DenseF32) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if train {
		panicTrain(d.Name())
	}
	return d.forwardInfer(x, NewArena())
}

// Backward implements Layer.
func (d *DenseF32) Backward(*tensor.Matrix) *tensor.Matrix {
	panicTrain(d.Name())
	return nil
}

// Params implements Layer: nothing trainable.
func (d *DenseF32) Params() []*Param { return nil }

// Clone implements Layer. The layer is immutable, so the receiver is
// its own independent copy.
func (d *DenseF32) Clone() Layer { return d }

// forwardInfer implements inferencer: narrow the batch to float32, run
// the float32 matmul, widen the biased result.
func (d *DenseF32) forwardInfer(x *tensor.Matrix, ar *Arena) *tensor.Matrix {
	checkCols(d, d.In, x.Cols)
	x32 := ar.get32(x.Rows, x.Cols)
	for i, v := range x.Data {
		x32.Data[i] = float32(v)
	}
	y32 := ar.get32(x.Rows, d.Out)
	tensor.ParallelMatMul32Into(y32, x32, d.W)
	out := ar.get(x.Rows, d.Out)
	for i := 0; i < x.Rows; i++ {
		src, dst := y32.Row(i), out.Row(i)
		for j, v := range src {
			dst[j] = float64(v + d.B[j])
		}
	}
	return out
}

// DenseInt8 is the int8 inference twin of Dense. Weights are stored
// transposed (Out x In) with one symmetric scale per output; each input
// row is quantized dynamically with its own scale, and the int8 dot
// products accumulate exactly in int32.
type DenseInt8 struct {
	In, Out int
	WT      *tensor.Int8Matrix // Out x In, per-output scales
	B       []float64
}

var _ Layer = (*DenseInt8)(nil)

func newDenseInt8(d *Dense) (*DenseInt8, error) {
	if err := checkInt8DotLen(d.Name(), d.In); err != nil {
		return nil, err
	}
	b := make([]float64, len(d.B))
	copy(b, d.B)
	return &DenseInt8{In: d.In, Out: d.Out, WT: tensor.QuantizeRowsInt8(d.W.Transpose()), B: b}, nil
}

// Name implements Layer.
func (d *DenseInt8) Name() string { return fmt.Sprintf("dense8(%dx%d)", d.In, d.Out) }

// OutDim implements Layer.
func (d *DenseInt8) OutDim() int { return d.Out }

// Forward implements Layer; eval mode only.
func (d *DenseInt8) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if train {
		panicTrain(d.Name())
	}
	return d.forwardInfer(x, NewArena())
}

// Backward implements Layer.
func (d *DenseInt8) Backward(*tensor.Matrix) *tensor.Matrix {
	panicTrain(d.Name())
	return nil
}

// Params implements Layer: nothing trainable.
func (d *DenseInt8) Params() []*Param { return nil }

// Clone implements Layer; immutable, see DenseF32.Clone.
func (d *DenseInt8) Clone() Layer { return d }

// forwardInfer implements inferencer.
func (d *DenseInt8) forwardInfer(x *tensor.Matrix, ar *Arena) *tensor.Matrix {
	checkCols(d, d.In, x.Cols)
	qx := ar.geti8(1, d.In).Row(0)
	out := ar.get(x.Rows, d.Out)
	for i := 0; i < x.Rows; i++ {
		sx := tensor.QuantizeRowInt8(qx, x.Row(i))
		dst := out.Row(i)
		for j := 0; j < d.Out; j++ {
			dst[j] = sx*d.WT.Scale[j]*float64(tensor.Int8Dot(qx, d.WT.Row(j))) + d.B[j]
		}
	}
	return out
}

// Conv2DF32 is the float32 inference twin of Conv2D, running the fused
// im2col+matmul kernel in single precision.
type Conv2DF32 struct {
	g convGeom
	W *tensor.Matrix32 // OutC x (InC*K*K)
	B []float32
}

var _ Layer = (*Conv2DF32)(nil)

func newConv2DF32(c *Conv2D) *Conv2DF32 {
	b := make([]float32, len(c.B))
	for i, v := range c.B {
		b[i] = float32(v)
	}
	return &Conv2DF32{g: c.geom(), W: c.W.ToFloat32(), B: b}
}

// Name implements Layer.
func (c *Conv2DF32) Name() string {
	return fmt.Sprintf("conv32(%dx%dx%d->%d,k%d)", c.g.inC, c.g.inH, c.g.inW, c.g.outC, c.g.k)
}

// OutDim implements Layer.
func (c *Conv2DF32) OutDim() int { return c.g.outC * c.g.oh * c.g.ow }

// Forward implements Layer; eval mode only.
func (c *Conv2DF32) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if train {
		panicTrain(c.Name())
	}
	return c.forwardInfer(x, NewArena())
}

// Backward implements Layer.
func (c *Conv2DF32) Backward(*tensor.Matrix) *tensor.Matrix {
	panicTrain(c.Name())
	return nil
}

// Params implements Layer: nothing trainable.
func (c *Conv2DF32) Params() []*Param { return nil }

// Clone implements Layer; immutable, see DenseF32.Clone.
func (c *Conv2DF32) Clone() Layer { return c }

// forwardInfer implements inferencer: the single-precision instance of
// the tiled fused im2col+matmul kernel (see fused.go), with the batch
// narrowed to float32 on entry and the scores widened on exit.
func (c *Conv2DF32) forwardInfer(x *tensor.Matrix, ar *Arena) *tensor.Matrix {
	g := c.g
	inLen := g.inC * g.inH * g.inW
	checkCols(c, inLen, x.Cols)
	out := ar.get(x.Rows, c.OutDim())
	klen := g.inC * g.k * g.k
	rowsPer := convTileRows(g)
	tpMax := rowsPer * g.ow
	s32 := ar.get32(1, inLen).Row(0)
	colsBuf := ar.get32(klen, tpMax)
	prodBuf := ar.get32(g.outC, tpMax)
	positions := g.oh * g.ow
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			s32[j] = float32(v)
		}
		dst := out.Row(i)
		for oyA := 0; oyA < g.oh; oyA += rowsPer {
			oyB := min(oyA+rowsPer, g.oh)
			tp := (oyB - oyA) * g.ow
			cols := tensor.Matrix32{Rows: klen, Cols: tp, Data: colsBuf.Data[:klen*tp]}
			prod := tensor.Matrix32{Rows: g.outC, Cols: tp, Data: prodBuf.Data[:g.outC*tp]}
			im2colTile(g, s32, oyA, oyB, cols.Data)
			tensor.MatMul32Into(&prod, c.W, &cols)
			for oc := 0; oc < g.outC; oc++ {
				bias := c.B[oc]
				base := oc*positions + oyA*g.ow
				for p, v := range prod.Row(oc) {
					dst[base+p] = float64(v + bias)
				}
			}
		}
	}
	return out
}

// Conv2DInt8 is the int8 inference twin of Conv2D: per-output-channel
// weight scales fixed at compression, per-sample dynamic activation
// scale, receptive fields gathered into transposed int8 columns so each
// output element is one contiguous exact-int32 dot product.
type Conv2DInt8 struct {
	g convGeom
	W *tensor.Int8Matrix // OutC x (InC*K*K), per-channel scales
	B []float64
}

var _ Layer = (*Conv2DInt8)(nil)

func newConv2DInt8(c *Conv2D) (*Conv2DInt8, error) {
	if err := checkInt8DotLen(c.Name(), c.W.Cols); err != nil {
		return nil, err
	}
	b := make([]float64, len(c.B))
	copy(b, c.B)
	return &Conv2DInt8{g: c.geom(), W: tensor.QuantizeRowsInt8(c.W), B: b}, nil
}

// Name implements Layer.
func (c *Conv2DInt8) Name() string {
	return fmt.Sprintf("conv8(%dx%dx%d->%d,k%d)", c.g.inC, c.g.inH, c.g.inW, c.g.outC, c.g.k)
}

// OutDim implements Layer.
func (c *Conv2DInt8) OutDim() int { return c.g.outC * c.g.oh * c.g.ow }

// Forward implements Layer; eval mode only.
func (c *Conv2DInt8) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if train {
		panicTrain(c.Name())
	}
	return c.forwardInfer(x, NewArena())
}

// Backward implements Layer.
func (c *Conv2DInt8) Backward(*tensor.Matrix) *tensor.Matrix {
	panicTrain(c.Name())
	return nil
}

// Params implements Layer: nothing trainable.
func (c *Conv2DInt8) Params() []*Param { return nil }

// Clone implements Layer; immutable, see DenseF32.Clone.
func (c *Conv2DInt8) Clone() Layer { return c }

// forwardInfer implements inferencer.
func (c *Conv2DInt8) forwardInfer(x *tensor.Matrix, ar *Arena) *tensor.Matrix {
	inLen := c.g.inC * c.g.inH * c.g.inW
	checkCols(c, inLen, x.Cols)
	klen := c.g.inC * c.g.k * c.g.k
	positions := c.g.oh * c.g.ow
	out := ar.get(x.Rows, c.OutDim())
	qs := ar.geti8(1, inLen).Row(0)
	colsT := ar.geti8(positions, klen)
	for i := 0; i < x.Rows; i++ {
		sx := tensor.QuantizeRowInt8(qs, x.Row(i))
		c.im2colT(qs, colsT)
		dst := out.Row(i)
		for p := 0; p < positions; p++ {
			crow := colsT.Row(p)
			for oc := 0; oc < c.g.outC; oc++ {
				dot := tensor.Int8Dot(c.W.Row(oc), crow)
				dst[oc*positions+p] = sx*c.W.Scale[oc]*float64(dot) + c.B[oc]
			}
		}
	}
	return out
}

// im2colT gathers the quantized sample's receptive fields into colsT,
// one output position per row; every cell is written (out-of-image taps
// as zero codes), so the buffer needs no per-sample reset.
func (c *Conv2DInt8) im2colT(qs []int8, colsT *tensor.Int8Matrix) {
	g := c.g
	for oy := 0; oy < g.oh; oy++ {
		for ox := 0; ox < g.ow; ox++ {
			row := colsT.Row(oy*g.ow + ox)
			idx := 0
			for ch := 0; ch < g.inC; ch++ {
				chOff := ch * g.inH * g.inW
				for ky := 0; ky < g.k; ky++ {
					iy := oy*g.stride + ky - g.pad
					rowOff := chOff + iy*g.inW
					for kx := 0; kx < g.k; kx++ {
						ix := ox*g.stride + kx - g.pad
						if iy < 0 || iy >= g.inH || ix < 0 || ix >= g.inW {
							row[idx] = 0
						} else {
							row[idx] = qs[rowOff+ix]
						}
						idx++
					}
				}
			}
		}
	}
}

// checkInt8DotLen refuses compression when a layer's contraction length
// exceeds what the exact int32 accumulator can prove safe.
func checkInt8DotLen(name string, n int) error {
	if n > tensor.MaxInt8DotLen {
		return fmt.Errorf("nn: %s contraction length %d exceeds int8 accumulator bound %d", name, n, tensor.MaxInt8DotLen)
	}
	return nil
}
