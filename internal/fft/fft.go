// Package fft implements the orthonormal 2-D DCT-II the feature
// extractors rely on, with its products on internal/tensor's matmul
// kernel. It is sized for the small blocks (<= 16 x 16) and images
// (<= 512 x 512) used in hotspot detection.
package fft

import (
	"fmt"
	"math"
	"sync"

	"github.com/golitho/hsd/internal/tensor"
)

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
	// transpose, the right factor of every transform.
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
	var stack [256]float64 // row-pass product for blocks up to 16 x 16
	tmp := stack[:]
	if n*n > len(stack) {
		tmp = make([]float64, n*n)
	}
	out := make([]float64, n*n)
	mul(tmp[:n*n], p.fwd, block, n, n, n)
	mul(out, tmp[:n*n], p.inv, n, n, n)
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
