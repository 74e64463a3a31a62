package nn

import (
	"math/rand"
	"testing"

	"github.com/golitho/hsd/internal/tensor"
)

// Benchmarks comparing the inference convolution as it ships (fused.go:
// one addressed product per output row over the zero-bordered sample)
// with the gather it replaced, a materialised im2col matrix and one
// matmul, on the zoo's two conv stages at batch 32. "shipped" must stay
// at or below "im2col": the pair is what would catch a formulation that
// multiplies in place but loses to the copy it saves. The first stage
// has a third case, "shared", the scan farm's miss window at the default
// geometry (2 tiles a side, so s = 8): 6 columns of sums copied from the
// window to its left and the other 10 multiplied over the transposed
// plane (SumRows over TransposedTaps). It adds no bias, which the farm
// adds in the pool.
func benchConvLayer(b *testing.B, conv *Conv2D, s int) {
	rng := rand.New(rand.NewSource(41))
	net := NewNetwork(conv)
	net.Init(rng)
	x := tensor.NewMatrix(32, conv.InC*conv.InH*conv.InW)
	x.Randomize(rng, 1)
	ar := NewArena()
	b.Run("shipped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ar.Reset()
			conv.forwardInfer(x, ar)
		}
	})
	b.Run("im2col", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ar.Reset()
			conv.forwardInferIm2col(x, ar)
		}
	})
	if s == 0 {
		return
	}
	b.Run("shared", func(b *testing.B) {
		od, h, w := conv.OutDim(), conv.OutH(), conv.OutW()
		taps := conv.TransposedTaps()
		planes := make([][]float64, x.Rows)
		for r := range planes {
			planes[r] = transposedPlane(conv, x.Row(r))
		}
		left, sums := make([]float64, od), make([]float64, x.Rows*od)
		for i := 0; i < b.N; i++ {
			for r, plane := range planes {
				dst := sums[r*od:][:od]
				lo, hi := copyShared(conv, dst, left, s)
				conv.SumRows(dst, plane, taps, conv.InH+2*conv.Pad, h, 0, lo)
				conv.SumRows(dst, plane, taps, conv.InH+2*conv.Pad, h, hi, w)
			}
		}
	})
}

// zooConvs are the two conv stages of the topology zoo.go's StandardCNN
// builds over its DCT{16,16} tensor: 16 -> 16 channels on 16 x 16, then
// 16 -> 24 on 8 x 8.
func zooConvs(b *testing.B) (conv1, conv2 *Conv2D) {
	net, err := BuildCNN(CNNConfig{InC: 16, InH: 16, InW: 16, Conv1: 16, Conv2: 24, Hidden: 48, DropoutP: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	return net.Layers[0].(*Conv2D), net.Layers[3].(*Conv2D)
}

// forwardInferIm2col is inference by materialised im2col: the
// benchmarks' baseline and the Conv2D step of evalForward, the reference
// the addressed convolution is held to in scoring and training alike. Its
// gather is written from the definition (zeroed matrix, padded taps
// skipped), independently of the zero-bordered copy the addressed
// products read.
func (c *Conv2D) forwardInferIm2col(x *tensor.Matrix, ar *Arena) *tensor.Matrix {
	oh, ow := c.OutH(), c.OutW()
	out := ar.get(x.Rows, c.OutDim())
	cols := ar.get(c.InC*c.K*c.K, oh*ow)
	prod := ar.get(c.OutC, oh*ow)
	for i := 0; i < x.Rows; i++ {
		if c.Pad > 0 {
			cols.Zero() // the gather below skips the padding cells
		}
		c.im2colIntoBench(x.Row(i), cols)
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

func (c *Conv2D) im2colIntoBench(sample []float64, cols *tensor.Matrix) {
	oh, ow := c.OutH(), c.OutW()
	for ch := 0; ch < c.InC; ch++ {
		chOff := ch * c.InH * c.InW
		for ky := 0; ky < c.K; ky++ {
			for kx := 0; kx < c.K; kx++ {
				rowIdx := (ch*c.K+ky)*c.K + kx
				dst := cols.Row(rowIdx)
				for oy := 0; oy < oh; oy++ {
					iy := oy + ky - c.Pad
					if iy < 0 || iy >= c.InH {
						continue
					}
					srcRow := chOff + iy*c.InW
					for ox := 0; ox < ow; ox++ {
						ix := ox + kx - c.Pad
						if ix < 0 || ix >= c.InW {
							continue
						}
						dst[oy*ow+ox] = sample[srcRow+ix]
					}
				}
			}
		}
	}
}

func BenchmarkConvKernel1(b *testing.B) {
	conv1, _ := zooConvs(b)
	benchConvLayer(b, conv1, conv1.InW/2)
}

func BenchmarkConvKernel2(b *testing.B) {
	_, conv2 := zooConvs(b)
	benchConvLayer(b, conv2, 0)
}
