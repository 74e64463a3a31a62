// Property-based kernel equivalence tests: every matmul entry point —
// serial, pool-sharded parallel and A·Bᵀ — against a naive reference,
// and the assembly kernel against the portable one, over randomized and
// adversarial shapes and values. The kernels must match BIT FOR BIT
// (vector lanes, register tiles, k tiles and the k unroll all preserve
// the plain i-k-j accumulation order per element). Under -tags purego,
// and on machines without AVX2, both sides of the kernel comparison are
// the portable loop; ci.sh runs this file both ways.

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
// around the parallel shard grain. Subtests are named after these
// shapes, so the list and the rng draws behind it are fixed; new shapes
// go in kernelEdgeShapes.
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

// TestMatMulTransBMatchesTransposeThenMatMul: A·Bᵀ must equal MatMulInto
// on a materialized transpose bit for bit, over the same degenerate and
// odd shapes (which take both the transpose-b and the transpose-a
// route), into a NaN-poisoned destination.
func TestMatMulTransBMatchesTransposeThenMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var scratch []float64 // carried across shapes, as a fit carries it
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
			scratch = MatMulTransBInto(got, a, b, scratch)
			assertBitsEqual(t, "MatMulTransBInto", want.Data, got.Data)
		})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched shapes did not panic")
		}
	}()
	MatMulTransBInto(NewMatrix(2, 3), NewMatrix(2, 4), NewMatrix(3, 5), nil)
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

// kernelEdgeShapes straddle the assembly kernel's tile: every n from 1
// to 17 and the panel edges beyond (vector width 4, panel width 8), odd
// and sub-tile m (row groups of 4), and k around the unroll and the k
// tile.
func kernelEdgeShapes() [][3]int {
	var shapes [][3]int
	for n := 1; n <= 17; n++ {
		shapes = append(shapes, [3]int{5, 7, n}, [3]int{1, 66, n})
	}
	for _, n := range []int{31, 33, 255, 257} {
		shapes = append(shapes, [3]int{3, 5, n}, [3]int{7, 130, n})
	}
	for _, m := range []int{1, 2, 3, 4, 5, 8, 9, 11} {
		shapes = append(shapes, [3]int{m, 1, 8}, [3]int{m, 67, 24}, [3]int{m, 129, 19})
	}
	return shapes
}

// oddValues are the inputs where a kernel that reassociated, fused or
// skipped anything would show: signed zeros, denormals, values whose
// products overflow or cancel, infinities and NaN.
var oddValues = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
	1e308, -1e308, 1e-308, 1 + 1e-15, -(1 + 1e-15), 3, -3,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// oddMatrix is an r x c view starting off elements into its backing
// array, so that it is never 32-byte aligned when off is odd; about one
// element in five is drawn from oddValues[:nOdd].
func oddMatrix(rng *rand.Rand, r, c, off, nOdd int) *Matrix {
	buf := make([]float64, off+r*c)
	m := &Matrix{Rows: r, Cols: c, Data: buf[off:]}
	for i := range m.Data {
		if nOdd > 0 && rng.Intn(5) == 0 {
			m.Data[i] = oddValues[rng.Intn(nOdd)]
		} else {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// portableTiles is matMulTiles with the assembly left out: the portable
// kernel over every column, k tile by k tile. It is the oracle of the
// kernel comparisons and the portable side of the kernel benchmarks.
func portableTiles(d []float64, ldd int, av []float64, lda int, bv []float64, off []int, m, k, n int, acc bool) {
	if off == nil {
		off = make([]int, k)
		for t := range off {
			off[t] = t * n
		}
	}
	for k0 := 0; m > 0 && (k0 == 0 || k0 < k); k0 += mmBlockK {
		matMulPortable(d, ldd, av[k0:], lda, bv, off[k0:min(k0+mmBlockK, k)], m, n, 0, acc || k0 > 0)
	}
}

// assertKernelsAgree runs the shipped kernel (matMulRows: assembly
// panels plus portable edge) and the portable kernel alone over the same
// operands into NaN-poisoned destinations at an odd offset, and compares
// every element by its bits; where the portable kernel gives NaN the
// other must too, with any payload.
func assertKernelsAgree(t *testing.T, a, b *Matrix) {
	t.Helper()
	m, k, n := a.Rows, a.Cols, b.Cols
	poisoned := func() *Matrix {
		buf := make([]float64, 1+m*n)
		for i := range buf {
			buf[i] = math.NaN()
		}
		return &Matrix{Rows: m, Cols: n, Data: buf[1:]}
	}
	want, got := poisoned(), poisoned()
	portableTiles(want.Data, n, a.Data, k, b.Data, nil, m, k, n, false)
	matMulRows(got, a, b, 0, m)
	assertBitsOrBothNaN(t, fmt.Sprintf("%dx%dx%d", m, k, n), want.Data, got.Data)
}

// assertBitsOrBothNaN compares element by element by the bits; where
// want is NaN, got must be NaN too, with any payload.
func assertBitsOrBothNaN(t *testing.T, name string, want, got []float64) {
	t.Helper()
	for i, w := range want {
		g := got[i]
		if math.IsNaN(w) && math.IsNaN(g) {
			continue
		}
		if math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("%s element %d: kernel %v (bits %x), oracle %v (bits %x)",
				name, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// TestKernelMatchesPortable calls the two kernels directly. Finite
// inputs first (the signed zeros, denormals and near-overflow values,
// where every bit is compared), then with infinities and NaN mixed in.
func TestKernelMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	finite := len(oddValues) - 3
	for _, sh := range append(propertyShapes(rng), kernelEdgeShapes()...) {
		m, k, n := sh[0], sh[1], sh[2]
		for _, nOdd := range []int{0, finite, len(oddValues)} {
			assertKernelsAgree(t, oddMatrix(rng, m, k, 1, nOdd), oddMatrix(rng, k, n, 3, nOdd))
		}
	}
}

// TestMatMulShortDataPanicsBeforeStore: a Matrix whose Data is shorter
// than Rows x Cols is refused in Go, by the slicing in matMulRows, before
// either kernel has stored anything; the assembly is never handed it.
func TestMatMulShortDataPanicsBeforeStore(t *testing.T) {
	const m, k, n = 6, 9, 16
	rng := rand.New(rand.NewSource(19))
	for _, short := range []string{"dst", "a", "b"} {
		a, b := oddMatrix(rng, m, k, 0, 0), oddMatrix(rng, k, n, 0, 0)
		bT := b.Transpose()
		backing := make([]float64, m*n)
		for i := range backing {
			backing[i] = math.NaN()
		}
		dst := &Matrix{Rows: m, Cols: n, Data: backing}
		switch short {
		case "dst":
			dst.Data = dst.Data[:m*n-1]
		case "a":
			a.Data = a.Data[:m*k-1]
		case "b":
			b.Data, bT.Data = b.Data[:k*n-1], bT.Data[:k*n-1]
		}
		for name, mul := range map[string]func(){
			"MatMulInto":       func() { MatMulInto(dst, a, b) },
			"MatMulTransBInto": func() { MatMulTransBInto(dst, a, bT, nil) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: short %s did not panic", name, short)
					}
				}()
				mul()
			}()
			for i, v := range backing {
				if !math.IsNaN(v) {
					t.Fatalf("%s: short %s: dst element %d was stored before the panic", name, short, i)
				}
			}
		}
	}
}

// FuzzMatMulKernel lets the fuzzer pick the shape, the operand offsets
// and the value mix; the property is TestKernelMatchesPortable's.
func FuzzMatMulKernel(f *testing.F) {
	f.Add(uint8(4), uint8(64), uint8(8), uint8(0), int64(1))
	f.Add(uint8(5), uint8(65), uint8(9), uint8(1), int64(2))
	f.Add(uint8(1), uint8(3), uint8(17), uint8(2), int64(3))
	f.Add(uint8(9), uint8(130), uint8(31), uint8(3), int64(4))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(1), int64(5))
	f.Add(uint8(3), uint8(0), uint8(8), uint8(2), int64(6))
	f.Fuzz(func(t *testing.T, m, k, n, mix uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		nOdd := []int{0, len(oddValues) - 3, len(oddValues), 2}[mix%4]
		a := oddMatrix(rng, int(m%40), int(k), int((mix>>2)%4), nOdd)
		b := oddMatrix(rng, int(k), int(n%70), int((mix>>4)%4), nOdd)
		assertKernelsAgree(t, a, b)
	})
}

// addressedCase is one addressed product: a at an odd element offset with
// its own row stride (rows overlapping when lda < k), a b just long
// enough for its table, offsets drawn so that rows overlap and repeat,
// and a dst stride with a gap after each row. init is dst as the product
// is handed it: NaN everywhere, except that under acc the cells the
// product owns hold the sums it is to carry on.
type addressedCase struct {
	m, k, n, lda, ldd int
	acc               bool
	a, b, init        []float64
	rows              RowTable
}

func newAddressedCase(rng *rand.Rand, m, k, n, lda int, acc bool, nOdd int) addressedCase {
	c := addressedCase{m: m, k: k, n: n, lda: lda, ldd: n + rng.Intn(3), acc: acc}
	c.a = oddMatrix(rng, 1, max(0, (m-1)*lda+k), 1, nOdd).Data
	// A short b makes most rows overlap; every third row repeats an
	// earlier one outright.
	span := rng.Intn(2*k + 2)
	c.b = oddMatrix(rng, 1, span+n, 3, nOdd).Data
	off := make([]int, k)
	for t := range off {
		if t > 0 && t%3 == 0 {
			off[t] = off[rng.Intn(t)]
		} else {
			off[t] = rng.Intn(span + 1)
		}
	}
	c.rows = NewRowTable(off)
	c.init = make([]float64, max(0, (m-1)*c.ldd+n))
	for i := range c.init {
		c.init[i] = math.NaN()
	}
	for i := 0; acc && i < m; i++ {
		copy(c.init[i*c.ldd:][:n], oddMatrix(rng, 1, n, 0, nOdd).Data)
	}
	return c
}

// dst is a fresh copy of c.init, at an odd offset.
func (c addressedCase) dst() []float64 {
	buf := make([]float64, 1+len(c.init))
	copy(buf[1:], c.init)
	return buf[1:]
}

// assertAddressedAgrees holds MatMulStridedInto (assembly panels plus
// portable edge) to the portable kernel alone, and both to the
// definition: the scalar loop over the addressed operands, each sum
// starting from zero, or under acc from what dst held. The gaps between
// dst rows must keep their poison.
func assertAddressedAgrees(t *testing.T, c addressedCase) {
	t.Helper()
	name := fmt.Sprintf("addressed %dx%dx%d lda %d ldd %d acc %v", c.m, c.k, c.n, c.lda, c.ldd, c.acc)
	want, got, spec := c.dst(), c.dst(), c.dst()
	portableTiles(want, c.ldd, c.a, c.lda, c.b, c.rows.off, c.m, c.k, c.n, c.acc)
	MatMulStridedInto(got, c.ldd, c.a, c.lda, c.m, c.b, c.rows, c.n, c.acc)
	assertBitsOrBothNaN(t, name, want, got)
	for i := 0; i < c.m && c.n > 0; i++ {
		row := spec[i*c.ldd:][:c.n]
		if !c.acc {
			clear(row)
		}
		for r, o := range c.rows.off {
			av := c.a[i*c.lda+r]
			for j := range row {
				row[j] += av * c.b[o+j]
			}
		}
	}
	assertBitsOrBothNaN(t, name+" against the scalar loop", spec, got)
}

// TestAddressedMatchesPortable is TestKernelMatchesPortable for the
// addressed product, over the same shapes and value mixes, with a's rows
// packed, spread and overlapping, from zero and carried on.
func TestAddressedMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	finite := len(oddValues) - 3
	for _, sh := range append(propertyShapes(rng), kernelEdgeShapes()...) {
		m, k, n := sh[0], sh[1], sh[2]
		for _, nOdd := range []int{0, finite, len(oddValues)} {
			for _, lda := range []int{k, k + 1 + rng.Intn(3), rng.Intn(k + 1)} {
				assertAddressedAgrees(t, newAddressedCase(rng, m, k, n, lda, rng.Intn(2) == 1, nOdd))
			}
		}
	}
}

// TestAddressedShortDataPanicsBeforeStore: an operand too short for the
// product, or an offset outside b, is refused in Go before either kernel
// has stored anything; a negative offset never becomes a table.
func TestAddressedShortDataPanicsBeforeStore(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	c := newAddressedCase(rng, 6, 70, 16, 70, false, 0)
	far := append([]int(nil), c.rows.off...)
	far[len(far)-1] = len(c.b) - c.n + 1
	for name, mul := range map[string]func(dst []float64){
		"short dst":  func(dst []float64) { MatMulAddressedInto(dst[:len(dst)-1], c.ldd, c.a, c.m, c.b, c.rows, c.n) },
		"short a":    func(dst []float64) { MatMulAddressedInto(dst, c.ldd, c.a[:len(c.a)-1], c.m, c.b, c.rows, c.n) },
		"short b":    func(dst []float64) { MatMulAddressedInto(dst, c.ldd, c.a, c.m, c.b[:c.rows.span+c.n-1], c.rows, c.n) },
		"far offset": func(dst []float64) { MatMulAddressedInto(dst, c.ldd, c.a, c.m, c.b, NewRowTable(far), c.n) },
		"negative offset": func(dst []float64) {
			MatMulAddressedInto(dst, c.ldd, c.a, c.m, c.b, NewRowTable([]int{0, -1}), c.n)
		},
		"narrow dst stride": func(dst []float64) { MatMulAddressedInto(dst, c.n-1, c.a, c.m, c.b, c.rows, c.n) },
		"a stride past a":   func(dst []float64) { MatMulStridedInto(dst, c.ldd, c.a, c.k+1, c.m, c.b, c.rows, c.n, false) },
		"negative a stride": func(dst []float64) { MatMulStridedInto(dst, c.ldd, c.a, -1, c.m, c.b, c.rows, c.n, true) },
	} {
		dst := c.dst()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			mul(dst)
		}()
		for i, v := range dst {
			if !math.IsNaN(v) {
				t.Fatalf("%s: dst element %d was stored before the panic", name, i)
			}
		}
	}
}

// FuzzAddressedKernel lets the fuzzer pick the shape, a's row stride
// (from 0, every row the same one, through overlapping to spread), whether
// the sums start at zero or are carried on, and the value mix; the seed
// draws the offsets. The property is TestAddressedMatchesPortable's.
func FuzzAddressedKernel(f *testing.F) {
	f.Add(uint8(16), uint8(144), uint8(16), uint8(144), false, uint8(0), int64(1))
	f.Add(uint8(24), uint8(144), uint8(8), uint8(144), false, uint8(1), int64(2))
	f.Add(uint8(16), uint8(16), uint8(16), uint8(255), true, uint8(0), int64(7)) // conv1's weight gradient, lda past k
	f.Add(uint8(5), uint8(65), uint8(9), uint8(3), true, uint8(2), int64(3))     // overlapping rows
	f.Add(uint8(1), uint8(3), uint8(17), uint8(0), false, uint8(3), int64(4))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), true, uint8(1), int64(5))
	f.Add(uint8(3), uint8(0), uint8(8), uint8(2), true, uint8(2), int64(6))
	f.Fuzz(func(t *testing.T, m, k, n, lda uint8, acc bool, mix uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		nOdd := []int{0, len(oddValues) - 3, len(oddValues), 2}[mix%4]
		assertAddressedAgrees(t, newAddressedCase(rng, int(m%40), int(k), int(n%70), int(lda), acc, nOdd))
	})
}
