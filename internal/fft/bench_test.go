package fft

import (
	"math/rand"
	"testing"
)

func BenchmarkFFT1K(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := FFT(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFFT2D128(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := make([]complex128, 128*128)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := FFT2D(x, 128, 128); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvolveSame128(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	img := make([]float64, 128*128)
	for i := range img {
		img[i] = rng.Float64()
	}
	k := make([]float64, 25*25)
	for i := range k {
		k[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ConvolveSame(img, 128, 128, k, 25, 25); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDCT2D8 is the block every zoo detector transforms (128 px
// raster / 16 blocks); BenchmarkDCT2D16 is the historical size.
func BenchmarkDCT2D8(b *testing.B)  { benchDCT2D(b, 8) }
func BenchmarkDCT2D16(b *testing.B) { benchDCT2D(b, 16) }

func benchDCT2D(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(4))
	block := make([]float64, n*n)
	for i := range block {
		block[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DCT2D(block, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDCTForwardBlocks16of64 is the feature tensor's transform: the
// 256 8x8 blocks of a 128 x 128 raster, 16 zigzag coefficients of each.
func BenchmarkDCTForwardBlocks16of64(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	img := make([]float64, 128*128)
	for i := range img {
		img[i] = rng.Float64()
	}
	p, err := PlanDCT(8)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float64, 16*256)
	var scratch []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if scratch, err = p.ForwardBlocks(out, img, 128, 128, 16, scratch); err != nil {
			b.Fatal(err)
		}
	}
}
