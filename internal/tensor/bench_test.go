package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(128, 128)
	a.Randomize(rng, 1)
	c := NewMatrix(128, 128)
	c.Randomize(rng, 1)
	dst := NewMatrix(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, c)
	}
}

// benchKernels times the shipped kernel (matMulRows: assembly panels
// where the machine has them) and the portable loop on one m x k x n
// product, and reports both as multiply-adds per nanosecond.
func benchKernels(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(10))
	ma, mb, dst := NewMatrix(m, k), NewMatrix(k, n), NewMatrix(m, n)
	ma.Randomize(rng, 1)
	mb.Randomize(rng, 1)
	rate := func(b *testing.B) {
		b.ReportMetric(float64(m*k*n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "MAC/ns")
	}
	b.Run("shipped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matMulRows(dst, ma, mb, 0, m)
		}
		rate(b)
	})
	b.Run("portable", func(b *testing.B) {
		plain := make([]int, k)
		for t := range plain {
			plain[t] = t * n
		}
		for i := 0; i < b.N; i++ {
			portableTiles(dst.Data, n, ma.Data, k, mb.Data, plain, m, k, n, false)
		}
		rate(b)
	})
}

// benchAddressed times one output row of a stride-1 convolution as
// Conv2D.forwardInfer multiplies it: outC x (inC*kk*kk) weights over the
// ow-wide runs of a zero-bordered (inC, ow+kk-1, ow+kk-1) input, written
// at the sample's row stride.
func benchAddressed(b *testing.B, outC, inC, kk, ow int) {
	rng := rand.New(rand.NewSource(12))
	pw := ow + kk - 1
	var off []int
	for ch := 0; ch < inC; ch++ {
		for ky := 0; ky < kk; ky++ {
			for kx := 0; kx < kk; kx++ {
				off = append(off, (ch*pw+ky)*pw+kx)
			}
		}
	}
	rows, k := NewRowTable(off), len(off)
	w, in, dst := NewMatrix(outC, k), NewMatrix(inC, pw*pw), NewMatrix(outC, ow*ow)
	w.Randomize(rng, 1)
	in.Randomize(rng, 1)
	rate := func(b *testing.B) {
		b.ReportMetric(float64(outC*k*ow)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "MAC/ns")
	}
	b.Run("shipped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatMulAddressedInto(dst.Data, ow*ow, w.Data, outC, in.Data, rows, ow)
		}
		rate(b)
	})
	b.Run("portable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			portableTiles(dst.Data, ow*ow, w.Data, k, in.Data, off, outC, k, ow, false)
		}
		rate(b)
	})
}

// BenchmarkMatMulKernels runs both kernels over the shapes the system
// multiplies: a 16-wide column tile and the training forward's full
// column matrix for each conv stage, the swapped weight-gradient
// product, a dX band, the dense layer at batch 1 and 32, the block DCT's
// row pass over one band of the raster and its column pass over one
// basis row, and two shapes far past L1 (the repo benchmark's 192 cube,
// and a b with page-long rows); then one output row of each conv stage
// as inference multiplies it, addressed. The small ones put the per-call
// overhead on record.
func BenchmarkMatMulKernels(b *testing.B) {
	for _, sh := range [][3]int{
		{16, 144, 16}, {16, 144, 256}, {24, 144, 64}, {144, 256, 16},
		{9, 24, 64}, {1, 96, 48}, {32, 96, 48}, {5, 8, 128}, {16, 8, 8},
		{192, 192, 192}, {64, 512, 512},
	} {
		b.Run(fmt.Sprintf("%dx%dx%d", sh[0], sh[1], sh[2]), func(b *testing.B) {
			benchKernels(b, sh[0], sh[1], sh[2])
		})
	}
	b.Run("conv1row/16x144x16", func(b *testing.B) { benchAddressed(b, 16, 16, 3, 16) })
	b.Run("conv2row/24x144x8", func(b *testing.B) { benchAddressed(b, 24, 16, 3, 8) })
}

// BenchmarkMatMulTransB measures A·Bᵀ as it ships (one operand
// transposed into kept scratch, then the shipped kernel) on the two
// conv weight-gradient shapes, one sample each: grad (OutC x positions)
// times the klen x positions column matrix. The baseline is the portable
// kernel on a b transposed once, outside the loop: what the product
// would cost with no transposing and no assembly.
func BenchmarkMatMulTransB(b *testing.B) {
	for _, sh := range [][3]int{{16, 256, 144}, {24, 64, 144}} {
		outC, positions, klen := sh[0], sh[1], sh[2]
		rng := rand.New(rand.NewSource(11))
		grad, cols, dst := NewMatrix(outC, positions), NewMatrix(klen, positions), NewMatrix(outC, klen)
		grad.Randomize(rng, 1)
		cols.Randomize(rng, 1)
		b.Run(fmt.Sprintf("%dx%dx%d/shipped", outC, positions, klen), func(b *testing.B) {
			var scratch []float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scratch = MatMulTransBInto(dst, grad, cols, scratch)
			}
		})
		b.Run(fmt.Sprintf("%dx%dx%d/portable", outC, positions, klen), func(b *testing.B) {
			colsT := cols.Transpose()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				portableTiles(dst.Data, klen, grad.Data, positions, colsT.Data, nil, outC, positions, klen, false)
			}
		})
	}
}

// BenchmarkParallelMatMul is what parallelMinWork and parallelMinRows are
// read off: each product once on the calling goroutine and once as two
// row shards on the pool, with the thresholds out of the way. The first
// six shapes step the work from 2^18 to 2^23 multiply-adds at ample
// rows; the last three hold b large and shrink the shard to 8, 4 and 2
// rows.
func BenchmarkParallelMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	for _, sh := range [][3]int{
		{32, 128, 64}, {64, 128, 64}, {64, 128, 128}, {64, 256, 128}, {128, 256, 128}, {192, 192, 192},
		{16, 256, 512}, {8, 512, 512}, {4, 1024, 512},
	} {
		m, k, n := sh[0], sh[1], sh[2]
		ma, mb, dst := NewMatrix(m, k), NewMatrix(k, n), NewMatrix(m, n)
		ma.Randomize(rng, 1)
		mb.Randomize(rng, 1)
		b.Run(fmt.Sprintf("%dx%dx%d/serial", m, k, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matMulRows(dst, ma, mb, 0, m)
			}
		})
		b.Run(fmt.Sprintf("%dx%dx%d/sharded", m, k, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Default().Run(m, 2, func(r0, r1 int) { matMulRows(dst, ma, mb, r0, r1) })
			}
		})
	}
}

func BenchmarkSoftmaxRows(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := NewMatrix(256, 2)
	m.Randomize(rng, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SoftmaxRows()
	}
}
