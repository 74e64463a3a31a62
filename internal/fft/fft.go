// Package fft implements the numeric transforms the lithography simulator
// and feature extractors rely on: an iterative radix-2 complex FFT, 2-D
// transforms, FFT-based 2-D convolution, and an orthonormal 2-D DCT-II.
//
// The FFTs are pure Go on the standard library; the DCT's products run on
// internal/tensor's matmul kernel. All are sized for the small images
// (<= 512 x 512) used in hotspot detection.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"

	"github.com/golitho/hsd/internal/tensor"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPow2 returns the smallest power of two >= n (n must be positive).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// FFT computes the in-place forward discrete Fourier transform of x.
// len(x) must be a power of two.
func FFT(x []complex128) error { return transform(x, false) }

// IFFT computes the in-place inverse DFT of x (including the 1/N scale).
// len(x) must be a power of two.
func IFFT(x []complex128) error { return transform(x, true) }

func transform(x []complex128, inverse bool) error {
	n := len(x)
	if !IsPow2(n) {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Iterative Cooley-Tukey butterflies.
	for size := 2; size <= n; size <<= 1 {
		ang := 2 * math.Pi / float64(size)
		if !inverse {
			ang = -ang
		}
		wStep := cmplx.Exp(complex(0, ang))
		half := size / 2
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
	return nil
}

// FFT2D computes the in-place forward 2-D DFT of a row-major h x w grid.
// Both dimensions must be powers of two and len(x) must equal w*h.
func FFT2D(x []complex128, w, h int) error { return transform2D(x, w, h, false) }

// IFFT2D computes the in-place inverse 2-D DFT of a row-major h x w grid.
func IFFT2D(x []complex128, w, h int) error { return transform2D(x, w, h, true) }

func transform2D(x []complex128, w, h int, inverse bool) error {
	if len(x) != w*h {
		return fmt.Errorf("fft: buffer length %d != %d x %d", len(x), w, h)
	}
	if !IsPow2(w) || !IsPow2(h) {
		return fmt.Errorf("fft: dimensions %dx%d must be powers of two", w, h)
	}
	// Rows.
	for y := 0; y < h; y++ {
		if err := transform(x[y*w:(y+1)*w], inverse); err != nil {
			return err
		}
	}
	// Columns via a scratch buffer.
	col := make([]complex128, h)
	for cx := 0; cx < w; cx++ {
		for y := 0; y < h; y++ {
			col[y] = x[y*w+cx]
		}
		if err := transform(col, inverse); err != nil {
			return err
		}
		for y := 0; y < h; y++ {
			x[y*w+cx] = col[y]
		}
	}
	return nil
}

// ConvolveSame computes the 2-D convolution of a w x h real image with a
// centred kw x kh real kernel, returning a w x h result ("same" padding
// with zeros outside the image). The kernel centre is at
// (kw/2, kh/2). Implemented by zero-padded FFT multiplication.
func ConvolveSame(img []float64, w, h int, kernel []float64, kw, kh int) ([]float64, error) {
	if len(img) != w*h {
		return nil, fmt.Errorf("fft: image length %d != %dx%d", len(img), w, h)
	}
	if len(kernel) != kw*kh {
		return nil, fmt.Errorf("fft: kernel length %d != %dx%d", len(kernel), kw, kh)
	}
	pw := NextPow2(w + kw)
	ph := NextPow2(h + kh)

	a := make([]complex128, pw*ph)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			a[y*pw+x] = complex(img[y*w+x], 0)
		}
	}
	b := make([]complex128, pw*ph)
	for y := 0; y < kh; y++ {
		for x := 0; x < kw; x++ {
			b[y*pw+x] = complex(kernel[y*kw+x], 0)
		}
	}
	if err := FFT2D(a, pw, ph); err != nil {
		return nil, err
	}
	if err := FFT2D(b, pw, ph); err != nil {
		return nil, err
	}
	for i := range a {
		a[i] *= b[i]
	}
	if err := IFFT2D(a, pw, ph); err != nil {
		return nil, err
	}
	// Full convolution lives at offset 0; "same" extraction starts at the
	// kernel centre.
	ox, oy := kw/2, kh/2
	out := make([]float64, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out[y*w+x] = real(a[(y+oy)*pw+x+ox])
		}
	}
	return out, nil
}

// DCTPlan is the orthonormal DCT-II basis for n x n blocks. It is built
// once per n per process (PlanDCT memoises it), is immutable afterwards,
// and is therefore safe for any number of concurrent transforms.
//
// Every transform is two products on the matmul kernel (internal/tensor)
// with one association and one summation order: the row pass tmp = B*X,
// then out = tmp*B^T, every dot product accumulated from zero in
// ascending k, one rounded multiply and one add at a time. A coefficient
// is the same sum whichever others are computed beside it and whichever
// kernel runs, so its bits depend on neither. Callers (the feature
// tensor, the golden scores downstream of it) rely on that.
type DCTPlan struct {
	n int
	// fwd is the basis C row-major (fwd[i*n+k] = C[i][k]); inv is its
	// transpose, the basis of the inverse transform.
	fwd, inv []float64
	// zigRow[k] and zigCol[k] are the row and column of the k-th
	// coefficient in zigzag order, tabulated so a prefix transform
	// rebuilds no order and divides nothing per block.
	zigRow, zigCol []int
}

// dctPlans memoises one *DCTPlan per block size.
var dctPlans sync.Map

// PlanDCT returns the process-wide plan for n x n blocks, building it on
// the first call for n. n must be positive.
func PlanDCT(n int) (*DCTPlan, error) {
	if p, ok := dctPlans.Load(n); ok {
		return p.(*DCTPlan), nil
	}
	if n <= 0 {
		return nil, fmt.Errorf("fft: dct block size %d must be positive", n)
	}
	p := &DCTPlan{
		n: n, fwd: make([]float64, n*n), inv: make([]float64, n*n),
		zigRow: make([]int, n*n), zigCol: make([]int, n*n),
	}
	a0 := math.Sqrt(1 / float64(n))
	a := math.Sqrt(2 / float64(n))
	for i := 0; i < n; i++ {
		scale := a
		if i == 0 {
			scale = a0
		}
		for j := 0; j < n; j++ {
			v := scale * math.Cos(math.Pi*float64(i)*(2*float64(j)+1)/(2*float64(n)))
			p.fwd[i*n+j] = v
			p.inv[j*n+i] = v
		}
	}
	for k, w := range Zigzag(n) {
		p.zigRow[k], p.zigCol[k] = w/n, w%n
	}
	got, _ := dctPlans.LoadOrStore(n, p)
	return got.(*DCTPlan), nil
}

// mul is dst (m x n) = a (m x k) * b (k x n) on the matmul kernel.
func mul(dst, a, b []float64, m, k, n int) {
	tensor.MatMulInto(&tensor.Matrix{Rows: m, Cols: n, Data: dst},
		&tensor.Matrix{Rows: m, Cols: k, Data: a}, &tensor.Matrix{Rows: k, Cols: n, Data: b})
}

// ForwardBlocks transforms every n x n block of the row-major w x h image
// pix where it lies and keeps the first coefs coefficients of each in
// zigzag order, coefficient-major: with bw = w/n and bh = h/n blocks per
// side, coefficient k of block (by, bx) is written to
// out[(k*bh+by)*bw+bx], the (C, H, W) layout convolutional networks
// consume.
//
// A band of n image rows already is a row-major n x w matrix, so the row
// pass of all its blocks is one product, B[:rows] * band, where rows is
// one past the highest basis row the prefix touches; and that product,
// read as a rows*bw x n matrix (one row per basis row and block), times
// B^T gives every column frequency of every block in the band, of which
// the prefix picks its own. Those are the per-block transform's sums in
// its order.
//
// scratch holds both products; it is grown when too short and returned
// for the next call, as append returns its slice, and its contents mean
// nothing between calls.
func (p *DCTPlan) ForwardBlocks(out, pix []float64, w, h, coefs int, scratch []float64) ([]float64, error) {
	n := p.n
	if w <= 0 || h <= 0 || w%n != 0 || h%n != 0 || len(pix) != w*h {
		return scratch, fmt.Errorf("fft: dct image length %d, %dx%d is not a whole number of %dx%d blocks", len(pix), w, h, n, n)
	}
	bw, bh := w/n, h/n
	if coefs <= 0 || coefs > n*n || len(out) < coefs*bw*bh {
		return scratch, fmt.Errorf("fft: dct cannot keep %d of %d coefficients of %d blocks in %d outputs", coefs, n*n, bw*bh, len(out))
	}
	rows := 0
	for _, i := range p.zigRow[:coefs] {
		rows = max(rows, i+1)
	}
	if len(scratch) < 2*rows*w {
		scratch = make([]float64, 2*rows*w)
	}
	tmp, freq := scratch[:rows*w], scratch[rows*w:2*rows*w]
	for by := 0; by < bh; by++ {
		mul(tmp, p.fwd[:rows*n], pix[by*n*w:(by+1)*n*w], rows, n, w)
		mul(freq, tmp, p.inv, rows*bw, n, n)
		for k := 0; k < coefs; k++ {
			src := freq[p.zigRow[k]*w+p.zigCol[k]:]
			dst := out[(k*bh+by)*bw:][:bw]
			for bx := range dst {
				dst[bx] = src[bx*n]
			}
		}
	}
	return scratch, nil
}

// DCT2D computes the orthonormal 2-D DCT-II of a row-major n x n block and
// returns a new n x n coefficient grid. n must be positive.
func DCT2D(block []float64, n int) ([]float64, error) {
	if n <= 0 || len(block) != n*n {
		return nil, fmt.Errorf("fft: dct block length %d != %d^2", len(block), n)
	}
	p, err := PlanDCT(n)
	if err != nil {
		return nil, err
	}
	return p.full(p.fwd, p.inv, block), nil
}

// IDCT2D inverts DCT2D (orthonormal, so the inverse is the transpose pair).
func IDCT2D(coef []float64, n int) ([]float64, error) {
	if n <= 0 || len(coef) != n*n {
		return nil, fmt.Errorf("fft: idct block length %d != %d^2", len(coef), n)
	}
	p, err := PlanDCT(n)
	if err != nil {
		return nil, err
	}
	return p.full(p.inv, p.fwd, coef), nil
}

// full transforms one contiguous block into a fresh coefficient grid:
// basis * block * basisT.
func (p *DCTPlan) full(basis, basisT, block []float64) []float64 {
	n := p.n
	var stack [256]float64 // row-pass product for blocks up to 16 x 16
	tmp := stack[:]
	if n*n > len(stack) {
		tmp = make([]float64, n*n)
	}
	out := make([]float64, n*n)
	mul(tmp[:n*n], basis, block, n, n, n)
	mul(out, tmp[:n*n], basisT, n, n, n)
	return out
}

// Zigzag returns the zigzag scan order for an n x n block: a permutation
// of indices ordering coefficients from low to high spatial frequency.
func Zigzag(n int) []int {
	order := make([]int, 0, n*n)
	for s := 0; s < 2*n-1; s++ {
		if s%2 == 0 { // walk up-right
			i := min(s, n-1)
			j := s - i
			for i >= 0 && j < n {
				order = append(order, i*n+j)
				i--
				j++
			}
		} else { // walk down-left
			j := min(s, n-1)
			i := s - j
			for j >= 0 && i < n {
				order = append(order, i*n+j)
				i++
				j--
			}
		}
	}
	return order
}
