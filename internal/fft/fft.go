// Package fft implements the numeric transforms the lithography simulator
// and feature extractors rely on: an iterative radix-2 complex FFT, 2-D
// transforms, FFT-based 2-D convolution, and an orthonormal 2-D DCT-II.
//
// All transforms are pure Go on the standard library, sized for the small
// images (<= 512 x 512) used in hotspot detection.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
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
// The forward and inverse transforms (the inverse runs the same kernel on
// the transposed basis) keep one association and one summation order:
// the row pass tmp = B*X, then out = tmp*B^T, every dot product accumulated
// from zero in ascending k. A pruned call computes the same sums as a
// full one, so a coefficient's bits never depend on which others were
// asked for. Callers (the feature tensor, the golden scores downstream
// of it) rely on that; do not reorder the loops.
type DCTPlan struct {
	n int
	// fwd is the basis C row-major (fwd[i*n+k] = C[i][k]); inv is its
	// transpose, the basis of the inverse transform.
	fwd, inv []float64
	// row[w] and col[w] are the offsets i*n and j*n of coefficient
	// w = i*n+j into a row-major n x n grid, tabulated so the kernel
	// divides nothing per output.
	row, col []int
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
		row: make([]int, n*n), col: make([]int, n*n),
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
			p.row[i*n+j], p.col[i*n+j] = i*n, j*n
		}
	}
	got, _ := dctPlans.LoadOrStore(n, p)
	return got.(*DCTPlan), nil
}

// Forward computes DCT-II coefficients of the n x n block whose row y
// starts at src[y*stride], so a block can be transformed in place inside
// a larger row-major image. want lists the coefficients to compute as
// row-major indices i*n+j (nil means all n*n, in row-major order);
// coefficient want[k] is written to dst[k]. Only basis rows up to the
// highest row in want enter the row pass, which for a zigzag prefix is
// exactly the rows the prefix touches. scratch must hold n*n values and
// is overwritten; Forward allocates nothing.
func (p *DCTPlan) Forward(dst, src []float64, stride int, want []int, scratch []float64) error {
	return p.apply(p.fwd, dst, src, stride, want, scratch)
}

// apply is the one DCT kernel: dst[k] = (B * X * B^T)[want[k]].
func (p *DCTPlan) apply(basis, dst, src []float64, stride int, want []int, scratch []float64) error {
	n := p.n
	nout, rows := n*n, n
	if want != nil {
		last := 0 // offset of the highest wanted row
		for _, w := range want {
			if w < 0 || w >= n*n {
				return fmt.Errorf("fft: dct coefficient index %d outside %dx%d block", w, n, n)
			}
			last = max(last, p.row[w])
		}
		nout, rows = len(want), last/n+1
	}
	if stride < n || len(src) < (n-1)*stride+n {
		return fmt.Errorf("fft: dct source length %d, stride %d cannot hold a %dx%d block", len(src), stride, n, n)
	}
	if len(dst) < nout || len(scratch) < n*n {
		return fmt.Errorf("fft: dct needs %d outputs and %d scratch, got %d and %d", nout, n*n, len(dst), len(scratch))
	}
	// Row pass: tmp[i][j] = sum_k B[i][k] * X[k][j].
	// Four columns advance together so the adds of independent sums
	// overlap; each sum still accumulates alone, in ascending k.
	for i := 0; i < rows; i++ {
		bi, ti := basis[i*n:(i+1)*n], scratch[i*n:(i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var s0, s1, s2, s3 float64
			for k, b := range bi {
				x := src[k*stride+j : k*stride+j+4]
				s0 += b * x[0]
				s1 += b * x[1]
				s2 += b * x[2]
				s3 += b * x[3]
			}
			ti[j], ti[j+1], ti[j+2], ti[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			var s float64
			for k, b := range bi {
				s += b * src[k*stride+j]
			}
			ti[j] = s
		}
	}
	// Column pass: out[i][j] = sum_k tmp[i][k] * B[j][k], four outputs
	// at a time for the same reason.
	at := func(k int) (ti, bj []float64) {
		w := k
		if want != nil {
			w = want[k]
		}
		i, j := p.row[w], p.col[w]
		return scratch[i : i+n], basis[j : j+n]
	}
	k := 0
	for ; k+4 <= nout; k += 4 {
		t0, b0 := at(k)
		t1, b1 := at(k + 1)
		t2, b2 := at(k + 2)
		t3, b3 := at(k + 3)
		var s0, s1, s2, s3 float64
		for q := range t0 {
			s0 += t0[q] * b0[q]
			s1 += t1[q] * b1[q]
			s2 += t2[q] * b2[q]
			s3 += t3[q] * b3[q]
		}
		dst[k], dst[k+1], dst[k+2], dst[k+3] = s0, s1, s2, s3
	}
	for ; k < nout; k++ {
		t, b := at(k)
		var s float64
		for q, v := range t {
			s += v * b[q]
		}
		dst[k] = s
	}
	return nil
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
	return p.full(p.fwd, block)
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
	return p.full(p.inv, coef)
}

// full transforms one contiguous block into a fresh coefficient grid.
func (p *DCTPlan) full(basis, block []float64) ([]float64, error) {
	var stack [256]float64 // row-pass scratch for blocks up to 16 x 16
	scratch := stack[:]
	if p.n*p.n > len(stack) {
		scratch = make([]float64, p.n*p.n)
	}
	out := make([]float64, p.n*p.n)
	if err := p.apply(basis, out, block, p.n, nil, scratch); err != nil {
		return nil, err
	}
	return out, nil
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
