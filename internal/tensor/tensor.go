// Package tensor provides the small dense linear-algebra kernel used by
// the machine-learning detectors: row-major float64 matrices with the
// operations training needs (matmul, transpose, axpy, softmax rows).
//
// The implementation favours clarity and cache-friendly loops over
// assembly-level tuning; sizes in hotspot detection are modest (feature
// dimensions in the thousands, batches in the hundreds).
package tensor

import (
	"fmt"
	"math"
	"math/rand"
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

// Cache-blocking tile sizes for MatMulInto. The k tile keeps a band of b
// rows resident while each dst row accumulates; the j tile keeps the
// dst-row segment in L1 across the band. Per-element accumulation order
// stays ascending in k (tiles are visited in order), so blocked results
// are bit-identical to the plain i-k-j loop.
const (
	mmBlockK = 64
	mmBlockJ = 512
)

// MatMulInto computes dst = a * b; dst must be pre-sized a.Rows x b.Cols.
// The i-k-j loop order keeps the inner loop contiguous in both b and dst,
// and the k/j tiles keep the working set cache-resident for large shapes.
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

// matMulRows computes rows [r0, r1) of dst = a * b, zeroing exactly the
// rows it owns. Each dst row is produced independently, which is what
// lets ParallelMatMulInto shard rows across workers without changing any
// result bit.
//
// The inner kernel is unrolled four deep in k with explicitly
// left-associated adds: each dst element accumulates its terms in
// strictly ascending k order, one at a time, exactly like the plain
// i-k-j loop — so the unroll changes no result bit while amortizing the
// dst load/store (the serial bottleneck) over four multiply-adds.
func matMulRows(dst, a, b *Matrix, r0, r1 int) {
	n := b.Cols
	for i := r0; i < r1; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = 0
		}
		for k0 := 0; k0 < a.Cols; k0 += mmBlockK {
			k1 := min(k0+mmBlockK, a.Cols)
			for j0 := 0; j0 < n; j0 += mmBlockJ {
				j1 := min(j0+mmBlockJ, n)
				dseg := drow[j0:j1]
				w := len(dseg)
				k := k0
				for ; k+4 <= k1; k += 4 {
					av0, av1, av2, av3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
					b0 := b.Data[k*n+j0 : k*n+j1][:w]
					b1 := b.Data[(k+1)*n+j0 : (k+1)*n+j1][:w]
					b2 := b.Data[(k+2)*n+j0 : (k+2)*n+j1][:w]
					b3 := b.Data[(k+3)*n+j0 : (k+3)*n+j1][:w]
					for j := range dseg {
						s := dseg[j]
						s += av0 * b0[j]
						s += av1 * b1[j]
						s += av2 * b2[j]
						s += av3 * b3[j]
						dseg[j] = s
					}
				}
				for ; k < k1; k++ {
					av := arow[k]
					bseg := b.Data[k*n+j0 : k*n+j1][:w]
					for j, bv := range bseg {
						dseg[j] += av * bv
					}
				}
			}
		}
	}
}

// MatMulTransBInto computes dst = a * bᵀ without forming the transpose:
// dst[i][j] is row i of a dotted with row j of b, so a and b share their
// column count and dst must be pre-sized a.Rows x b.Rows. Both operands
// are read along their rows, which is what backpropagation has in hand
// (grad · colsᵀ for weight gradients, grad · Wᵀ for input gradients).
//
// Every sum starts from zero and takes its terms one at a time in
// ascending k, the association matMulRows gives each dst element, so
// the result equals MatMulInto(dst, a, b.Transpose()) bit for bit. Four
// sums over four rows of b run interleaved: a single sum is bound by the
// latency of its adds, four independent ones keep the adder busy.
func MatMulTransBInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shapes %dx%d * (%dx%d)ᵀ -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	k, n := a.Cols, b.Rows
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*k : (i+1)*k]
		drow := dst.Data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.Data[j*k : (j+1)*k][:len(arow)]
			b1 := b.Data[(j+1)*k : (j+2)*k][:len(arow)]
			b2 := b.Data[(j+2)*k : (j+3)*k][:len(arow)]
			b3 := b.Data[(j+3)*k : (j+4)*k][:len(arow)]
			var s0, s1, s2, s3 float64
			for t, av := range arow {
				s0 += av * b0[t]
				s1 += av * b1[t]
				s2 += av * b2[t]
				s3 += av * b3[t]
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k][:len(arow)]
			var s float64
			for t, av := range arow {
				s += av * brow[t]
			}
			drow[j] = s
		}
	}
}

// Transpose returns a new matrix that is m transposed.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
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
