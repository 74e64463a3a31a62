// Property-based kernel equivalence tests: every matmul variant —
// blocked/unrolled serial and pool-sharded parallel — against a naive
// reference, over randomized and adversarial shapes. The kernels must
// match the reference BIT FOR BIT (the blocked and unrolled loops
// preserve the plain i-k-j accumulation order per element).

package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// specMatMul is the specification kernel: plain i-k-j, ascending k, one
// add at a time. Everything else must reproduce it exactly.
func specMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			for j := 0; j < b.Cols; j++ {
				out.Data[i*b.Cols+j] += av * b.At(k, j)
			}
		}
	}
	return out
}

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		switch rng.Intn(10) {
		case 0:
			m.Data[i] = 0 // exercise the zero paths
		case 1:
			m.Data[i] = -0.0
		case 2:
			m.Data[i] = rng.NormFloat64() * 1e6 // magnitude spread
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// propertyShapes mixes random shapes with adversarial ones: empty and
// single-element matrices, shapes straddling the blocking tiles
// (mmBlockK=64, mmBlockJ=512), unroll remainders (k % 4 != 0), and rows
// around the parallel shard grain.
func propertyShapes(rng *rand.Rand) [][3]int {
	shapes := [][3]int{
		{0, 0, 0}, {0, 3, 2}, {1, 0, 4}, {3, 2, 0},
		{1, 1, 1}, {1, 4, 1}, {2, 3, 5},
		{3, 63, 7}, {3, 64, 7}, {3, 65, 7}, {5, 66, 9},
		{2, 128, 513}, {2, 4, 512}, {2, 5, 515},
		{7, 13, 1}, {8, 100, 100}, {9, 100, 100}, {33, 70, 31},
	}
	for i := 0; i < 8; i++ {
		shapes = append(shapes, [3]int{rng.Intn(40), rng.Intn(150), rng.Intn(80)})
	}
	return shapes
}

func TestMatMulVariantsBitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range propertyShapes(rng) {
		m, k, n := sh[0], sh[1], sh[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := randomMatrix(rng, m, k)
			b := randomMatrix(rng, k, n)
			want := specMatMul(a, b)

			got := NewMatrix(m, n)
			MatMulInto(got, a, b)
			assertBitsEqual(t, "MatMulInto", want.Data, got.Data)

			for _, workers := range []int{1, 2, 3, 8} {
				got.Zero()
				// Poison dst: the kernel must fully overwrite its rows.
				for i := range got.Data {
					got.Data[i] = math.NaN()
				}
				ParallelMatMulIntoWorkers(got, a, b, workers)
				assertBitsEqual(t, fmt.Sprintf("ParallelMatMulIntoWorkers(%d)", workers), want.Data, got.Data)
			}
		})
	}
}

// TestMatMulTransBMatchesTransposeThenMatMul: the A·Bᵀ kernel must equal
// MatMulInto on a materialized transpose bit for bit, over the same
// degenerate and odd shapes (b.Rows % 4 != 0 reaches the single-sum
// tail), into a NaN-poisoned destination.
func TestMatMulTransBMatchesTransposeThenMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, sh := range propertyShapes(rng) {
		m, k, n := sh[0], sh[1], sh[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := randomMatrix(rng, m, k)
			b := randomMatrix(rng, n, k)
			want := NewMatrix(m, n)
			MatMulInto(want, a, b.Transpose())

			got := NewMatrix(m, n)
			for i := range got.Data {
				got.Data[i] = math.NaN()
			}
			MatMulTransBInto(got, a, b)
			assertBitsEqual(t, "MatMulTransBInto", want.Data, got.Data)
		})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched shapes did not panic")
		}
	}()
	MatMulTransBInto(NewMatrix(2, 3), NewMatrix(2, 4), NewMatrix(3, 5))
}

func assertBitsEqual(t *testing.T, name string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: element %d = %v (bits %x), want %v (bits %x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}
