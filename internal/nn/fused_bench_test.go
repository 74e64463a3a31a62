package nn

import (
	"math/rand"
	"testing"

	"github.com/golitho/hsd/internal/tensor"
)

// Benchmarks comparing the inference convolution as it ships (fused.go:
// one addressed product per output row over the zero-bordered sample)
// with the gather it replaced, a materialised im2col matrix and one
// matmul, on two conv shapes at batch 32. "shipped" must stay at or below
// "im2col": the pair is what would catch a formulation that multiplies
// in place but loses to the copy it saves.
func benchConvLayer(b *testing.B, conv *Conv2D) {
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
	benchConvLayer(b, NewConv2D(16, 16, 16, 24, 3, 1))
}

func BenchmarkConvKernel2(b *testing.B) {
	benchConvLayer(b, NewConv2D(24, 8, 8, 32, 3, 1))
}
