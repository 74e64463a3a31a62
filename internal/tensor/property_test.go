// Property-based kernel equivalence tests: every matmul variant —
// blocked/unrolled serial, pool-sharded parallel, float32, and int8 —
// against a naive reference, over randomized and adversarial shapes.
// The float kernels must match the reference BIT FOR BIT (the blocked
// and unrolled loops preserve the plain i-k-j accumulation order per
// element); the int8 kernels must match an int64 reference exactly and
// honor the analytic dequantization error bound.

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

func specMatMul32(a, b *Matrix32) *Matrix32 {
	out := NewMatrix32(a.Rows, b.Cols)
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

func TestMatMul32VariantsBitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sh := range propertyShapes(rng) {
		m, k, n := sh[0], sh[1], sh[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := randomMatrix(rng, m, k).ToFloat32()
			b := randomMatrix(rng, k, n).ToFloat32()
			want := specMatMul32(a, b)

			got := NewMatrix32(m, n)
			MatMul32Into(got, a, b)
			assertBits32Equal(t, "MatMul32Into", want.Data, got.Data)

			for i := range got.Data {
				got.Data[i] = float32(math.NaN())
			}
			ParallelMatMul32Into(got, a, b)
			assertBits32Equal(t, "ParallelMatMul32Into", want.Data, got.Data)
		})
	}
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

func assertBits32Equal(t *testing.T, name string, want, got []float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("%s: element %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

func TestInt8DotMatchesInt64Reference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 1000} {
		a := make([]int8, n)
		b := make([]int8, n)
		var want int64
		for i := range a {
			a[i] = int8(rng.Intn(255) - 127)
			b[i] = int8(rng.Intn(255) - 127)
			want += int64(a[i]) * int64(b[i])
		}
		if got := int64(Int8Dot(a, b)); got != want {
			t.Fatalf("Int8Dot len %d = %d, want %d", n, got, want)
		}
	}
	// Worst case at the accumulator bound must not overflow.
	a := make([]int8, MaxInt8DotLen)
	b := make([]int8, MaxInt8DotLen)
	for i := range a {
		a[i], b[i] = -127, -127
	}
	want := int64(127) * 127 * MaxInt8DotLen
	if got := int64(Int8Dot(a, b)); got != want {
		t.Fatalf("Int8Dot worst case = %d, want %d", got, want)
	}
}

func TestInt8MatMulTransMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, sh := range [][3]int{{0, 0, 0}, {1, 1, 1}, {3, 7, 2}, {8, 64, 5}, {5, 65, 9}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := QuantizeRowsInt8(randomMatrix(rng, m, k))
		bT := QuantizeRowsInt8(randomMatrix(rng, n, k))
		got := NewMatrix(m, n)
		Int8MatMulTransInto(got, a, bT)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var dot int64
				for x := 0; x < k; x++ {
					dot += int64(a.Row(i)[x]) * int64(bT.Row(j)[x])
				}
				want := a.Scale[i] * bT.Scale[j] * float64(dot)
				if math.Float64bits(got.At(i, j)) != math.Float64bits(want) {
					t.Fatalf("(%d,%d) = %v, want %v", i, j, got.At(i, j), want)
				}
			}
		}
	}
}

func TestQuantizeRoundTripErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		row := make([]float64, n)
		for i := range row {
			row[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
		codes := make([]int8, n)
		scale := QuantizeRowInt8(codes, row)
		if math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0 {
			t.Fatalf("trial %d: bad scale %v", trial, scale)
		}
		// Symmetric rounding: each element within half a step, with a
		// hair of slack for the scale division itself.
		bound := scale/2 + 1e-12*scale
		for i, q := range codes {
			back := scale * float64(q)
			if math.Abs(back-row[i]) > bound {
				t.Fatalf("trial %d: element %d: %v -> %v (err %v > bound %v)",
					trial, i, row[i], back, math.Abs(back-row[i]), bound)
			}
		}
	}
}

func TestQuantizeHandlesDegenerateRows(t *testing.T) {
	check := func(name string, row []float64) {
		t.Helper()
		codes := make([]int8, len(row))
		scale := QuantizeRowInt8(codes, row)
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			t.Fatalf("%s: non-finite scale %v", name, scale)
		}
		for i, q := range codes {
			back := scale * float64(q)
			if math.IsNaN(back) || math.IsInf(back, 0) {
				t.Fatalf("%s: element %d dequantizes to %v", name, i, back)
			}
		}
	}
	check("empty", nil)
	check("all-zero", []float64{0, 0, 0})
	check("signed-zero", []float64{0, math.Copysign(0, -1)})
	check("nan", []float64{math.NaN(), 1, -1})
	check("inf", []float64{math.Inf(1), 2, -3})
	check("neg-inf", []float64{math.Inf(-1)})
	check("all-nonfinite", []float64{math.Inf(1), math.NaN()})
	check("tiny", []float64{5e-324, -5e-324})
	check("huge", []float64{math.MaxFloat64, -math.MaxFloat64 / 2})
}
