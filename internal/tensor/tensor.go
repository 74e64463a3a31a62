// Package tensor provides the small dense linear-algebra kernel used by
// the machine-learning detectors: row-major float64 matrices with the
// operations training needs (matmul, transpose, axpy, softmax rows).
//
// Every matrix product in the repository, inference or training, goes
// through one entry (matMulRows) and one summation order. On amd64 with
// AVX2 the product runs in a hand-written assembly micro-kernel whose
// vector lanes lie across output columns; elsewhere, and under -tags
// purego, in the portable Go loop that is also the tests' oracle. The two
// agree to the bit, so scores and trained bytes do not depend on which
// one ran. The rest of the package is plain loops: sizes in hotspot
// detection are modest (feature dimensions in the thousands, batches in
// the hundreds).
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed r x c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromSlice wraps data (not copied) as an r x c matrix.
func FromSlice(r, c int, data []float64) (*Matrix, error) {
	if len(data) != r*c {
		return nil, fmt.Errorf("tensor: data length %d != %d x %d", len(data), r, c)
	}
	return &Matrix{Rows: r, Cols: c, Data: data}, nil
}

// At returns element (i, j) without bounds checking beyond the slice's own.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared backing array).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Randomize fills m with N(0, scale) entries from rng.
func (m *Matrix) Randomize(rng *rand.Rand, scale float64) {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * scale
	}
}

// MatMul computes a * b into a new matrix. Panics on dimension mismatch
// are avoided: it returns an error instead.
func MatMul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("tensor: matmul %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out, nil
}

// mmBlockK and mmBlockJ are the cache-blocking tile sizes of both
// kernels. A k tile bounds the band of b rows one pass over dst touches:
// 64 rows is one page of b per row at most, within the data TLB's reach
// even when a row of b is a page long (64x512x512 runs 2.5x faster with
// it than with all of k in one pass, and no measured shape runs slower).
// The j tile is the portable kernel's alone: it keeps the dst-row segment
// in L1 across the band. Tiles are visited in ascending k, so every dst
// element still takes its terms in ascending k.
const (
	mmBlockK = 64
	mmBlockJ = 512
)

// MatMulInto computes dst = a * b; dst must be pre-sized a.Rows x b.Cols.
// Every dst element is accumulated from zero, one product and one add at
// a time in ascending k, whichever kernel runs (see matMulRows), so the
// result is bit-identical to the plain i-k-j loop.
func MatMulInto(dst, a, b *Matrix) {
	checkMatMulShapes(dst, a, b)
	matMulRows(dst, a, b, 0, a.Rows)
}

func checkMatMulShapes(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul shapes %dx%d * %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
}

// matMulRows computes rows [r0, r1) of dst = a * b and writes every cell
// of the rows it owns. Each dst row is produced independently, which is
// what lets ParallelMatMulInto shard rows across workers without changing
// any result bit.
//
// Each operand is sliced to the extent the product needs before either
// kernel runs: a Matrix whose Data is shorter than Rows x Cols panics
// here, before any store, and the assembly is handed only pointers into
// slices already proven long enough.
func matMulRows(dst, a, b *Matrix, r0, r1 int) {
	m, k, n := r1-r0, a.Cols, b.Cols
	d := within(dst.Data, r0*n, r1*n)
	av := within(a.Data, r0*k, r1*k)
	bv := within(b.Data, 0, k*n)
	matMulTiles(d, n, av, k, bv, nil, m, k, n, false)
}

// within is data[lo:hi] checked against data's length: a plain slice
// expression would let hi run on into spare capacity.
func within(data []float64, lo, hi int) []float64 {
	return data[:len(data):len(data)][lo:hi]
}

// RowTable says where the rows of a product's right operand start: row t
// begins at element off[t] of the slice MatMulAddressedInto is handed.
// Rows may overlap or repeat, which is what lets a convolution multiply
// the shifted views of its input where they lie instead of copying them
// into a column matrix. A table is validated once, where it
// is built, is immutable afterwards and may be shared by any number of
// concurrent products.
type RowTable struct {
	off  []int
	span int // the largest offset: one comparison per product bounds every row
}

// NewRowTable copies off into a table; a negative offset panics.
func NewRowTable(off []int) RowTable {
	t := RowTable{off: slices.Clone(off)}
	for _, o := range off {
		if o < 0 {
			panic(fmt.Sprintf("tensor: negative row offset %d", o))
		}
		t.span = max(t.span, o)
	}
	return t
}

// MatMulAddressedInto computes, for i < m and j < n,
//
//	dst[i*ldd+j] = Σ_t a[i*k+t] * b[rows.off[t]+j]
//
// over the k rows of the table: MatMulInto with dst given its own row
// stride and the rows of the right operand addressed, not strided. The
// sums are matMulTiles's (from zero, ascending t, one rounded product and
// one add at a time), so the result is bit-identical to gathering the
// rows into a k x n matrix and calling MatMulInto. It is the lda = k,
// from-zero case of MatMulStridedInto.
func MatMulAddressedInto(dst []float64, ldd int, a []float64, m int, b []float64, rows RowTable, n int) {
	MatMulStridedInto(dst, ldd, a, len(rows.off), m, b, rows, n, false)
}

// MatMulStridedInto is MatMulAddressedInto with the left operand given a
// row stride too, and the sums optionally carried on from what dst holds:
//
//	dst[i*ldd+j] = (acc ? dst[i*ldd+j] : 0) + Σ_t a[i*lda+t] * b[rows.off[t]+j]
//
// Rows of a may overlap (lda < k) or lie far apart, which is what lets a
// convolution's weight gradient read the channels of its zero-bordered
// input where they lie. A sum carried through dst takes up exactly where
// it left off (one rounded product and one add at a time, ascending t), so
// a contraction split into consecutive accumulating calls is bit-identical
// to the one long product. Like matMulRows it proves every operand long
// enough before either kernel stores anything.
func MatMulStridedInto(dst []float64, ldd int, a []float64, lda, m int, b []float64, rows RowTable, n int, acc bool) {
	k := len(rows.off)
	if m < 0 || n < 0 || ldd < n || lda < 0 {
		panic(fmt.Sprintf("tensor: addressed matmul %dx%dx%d with strides a %d, dst %d", m, k, n, lda, ldd))
	}
	if m == 0 || n == 0 {
		return
	}
	d := within(dst, 0, (m-1)*ldd+n)
	av := within(a, 0, (m-1)*lda+k)
	if k > 0 {
		b = within(b, 0, rows.span+n)
	}
	matMulTiles(d, ldd, av, lda, b, rows.off, m, k, n, acc)
}

// matMulTiles is the one product under every entry above: for i < m and
// j < n, d[i*ldd+j] (taken as zero unless acc) += Σ_t av[i*lda+t] *
// bv[off[t]+j], where a nil off means the rows of a plain row-major
// matrix, off[t] = t*n. The callers have proven d, av and bv long enough
// for every index that names.
//
// There are two kernels and one association. matMulPanels is the AVX2
// assembly (matmul_amd64.s), which takes whole panelCols-column panels
// where the machine has it; matMulPortable is the Go loop, which takes
// the ragged right edge, and every column on other machines or under
// -tags purego. Both give each dst element its own accumulator, started
// at zero (or at what d holds, under acc) and fed one rounded product at
// a time in ascending t, so which kernel computed a column cannot be read
// off its bits. The sums are carried through d from one k tile to the
// next, which is all acc is: a caller's earlier call was the tile before.
func matMulTiles(d []float64, ldd int, av []float64, lda int, bv []float64, off []int, m, k, n int, acc bool) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !acc {
			for i := 0; i < m; i++ {
				clear(d[i*ldd:][:n])
			}
		}
		return
	}
	// A plain product's k tiles all read rows 0, n, 2n, ... of a b that
	// starts further down each time, so its table is filled once.
	var plain [mmBlockK]int
	if off == nil {
		for t, o := 0, 0; t < min(k, mmBlockK); t, o = t+1, o+n {
			plain[t] = o
		}
	}
	for k0 := 0; k0 < k; k0 += mmBlockK {
		k1 := min(k0+mmBlockK, k)
		tile, bt := plain[:k1-k0], bv
		if off != nil {
			tile = off[k0:k1]
		} else {
			bt = bv[k0*n:]
		}
		if j := matMulPanels(d, ldd, av[k0:], lda, bt, tile, m, n, acc || k0 > 0); j < n {
			matMulPortable(d, ldd, av[k0:], lda, bt, tile, m, n, j, acc || k0 > 0)
		}
	}
}

// matMulPortable adds one k tile's terms to columns [jLo, n) of d: for
// i < m, d[i*ldd+j] (taken as zero unless acc) += Σ_t av[i*lda+t] *
// bv[off[t]+j] over the tile's len(off) rows.
//
// The inner loop is unrolled four deep in k with explicitly
// left-associated adds: each dst element accumulates its terms in
// strictly ascending k order, one at a time, exactly like the plain
// i-k-j loop — so the unroll changes no result bit while amortizing the
// dst load/store (the serial bottleneck) over four multiply-adds.
func matMulPortable(d []float64, ldd int, av []float64, lda int, bv []float64, off []int, m, n, jLo int, acc bool) {
	k := len(off)
	for i := 0; i < m; i++ {
		arow := av[i*lda:][:k]
		drow := d[i*ldd:][:n]
		if !acc {
			clear(drow[jLo:])
		}
		for j0 := jLo; j0 < n; j0 += mmBlockJ {
			j1 := min(j0+mmBlockJ, n)
			dseg := drow[j0:j1]
			w := len(dseg)
			kk := 0
			for ; kk+4 <= k; kk += 4 {
				av0, av1, av2, av3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
				o := off[kk : kk+4 : kk+4]
				b0 := bv[o[0]+j0 : o[0]+j1][:w]
				b1 := bv[o[1]+j0 : o[1]+j1][:w]
				b2 := bv[o[2]+j0 : o[2]+j1][:w]
				b3 := bv[o[3]+j0 : o[3]+j1][:w]
				for j := range dseg {
					s := dseg[j]
					s += av0 * b0[j]
					s += av1 * b1[j]
					s += av2 * b2[j]
					s += av3 * b3[j]
					dseg[j] = s
				}
			}
			for ; kk < k; kk++ {
				a0 := arow[kk]
				for j, bval := range bv[off[kk]+j0 : off[kk]+j1][:w] {
					dseg[j] += a0 * bval
				}
			}
		}
	}
}

// MatMulTransBInto computes dst = a * bᵀ: dst[i][j] is row i of a dotted
// with row j of b, so a and b share their column count and dst must be
// pre-sized a.Rows x b.Rows. It is what backpropagation has in hand
// (grad · colsᵀ for weight gradients, grad · Wᵀ for input gradients).
//
// The product runs on the one matmul kernel, whose lanes lie along the
// rows of its right operand, so one operand is transposed first,
// whichever costs fewer element moves: bᵀ, then a · bᵀ as written; or aᵀ,
// then dstᵀ = b · aᵀ, transposed back into dst. Either way every sum
// starts from zero and takes its products one at a time in ascending k,
// and a product does not depend on the order of its factors, so the
// result equals MatMulInto(dst, a, b.Transpose()) bit for bit.
//
// The transposes live in scratch, which is grown when too short and
// returned for the next call, as append returns its slice; its contents
// mean nothing between calls. A caller that keeps it allocates nothing
// once the largest product has been through.
func MatMulTransBInto(dst, a, b *Matrix, scratch []float64) []float64 {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shapes %dx%d * (%dx%d)ᵀ -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	m, k, n := a.Rows, a.Cols, b.Rows
	if n*k <= m*k+m*n {
		if len(scratch) < k*n {
			scratch = make([]float64, k*n)
		}
		bT := Matrix{Rows: k, Cols: n, Data: scratch[:k*n]}
		b.TransposeInto(bT.Data)
		matMulRows(dst, a, &bT, 0, m)
		return scratch
	}
	if len(scratch) < k*m+n*m {
		scratch = make([]float64, k*m+n*m)
	}
	aT := Matrix{Rows: k, Cols: m, Data: scratch[:k*m]}
	dT := Matrix{Rows: n, Cols: m, Data: scratch[k*m : k*m+n*m]}
	a.TransposeInto(aT.Data)
	matMulRows(&dT, b, &aT, 0, n)
	dT.TransposeInto(dst.Data)
	return scratch
}

// TransposeInto writes mᵀ, row-major, over the first Rows*Cols elements
// of out, which must not overlap m.
func (m *Matrix) TransposeInto(out []float64) {
	src := within(m.Data, 0, m.Rows*m.Cols)
	out = within(out, 0, len(src))
	for i := 0; i < m.Rows; i++ {
		for j, v := range src[i*m.Cols : (i+1)*m.Cols] {
			out[j*m.Rows+i] = v
		}
	}
}

// Transpose returns a new matrix that is m transposed.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	m.TransposeInto(out.Data)
	return out
}

// AddRowVector adds vector v to every row of m in place.
func (m *Matrix) AddRowVector(v []float64) error {
	if len(v) != m.Cols {
		return fmt.Errorf("tensor: row vector length %d != cols %d", len(v), m.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
	return nil
}

// Scale multiplies every element by s in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Axpy computes y += alpha * x element-wise over the raw data; the two
// matrices must have identical shapes.
func Axpy(alpha float64, x, y *Matrix) error {
	if x.Rows != y.Rows || x.Cols != y.Cols {
		return fmt.Errorf("tensor: axpy shape %dx%d vs %dx%d", x.Rows, x.Cols, y.Rows, y.Cols)
	}
	for i := range x.Data {
		y.Data[i] += alpha * x.Data[i]
	}
	return nil
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// SoftmaxRows applies an in-place numerically stable softmax to each row.
func (m *Matrix) SoftmaxRows() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		maxV := math.Inf(-1)
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - maxV)
			row[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range row {
			row[j] *= inv
		}
	}
}

// ArgmaxRow returns the index of the maximum element in row i.
func (m *Matrix) ArgmaxRow(i int) int {
	row := m.Row(i)
	best, bestV := 0, math.Inf(-1)
	for j, v := range row {
		if v > bestV {
			best, bestV = j, v
		}
	}
	return best
}
