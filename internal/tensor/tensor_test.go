package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromSlice(t *testing.T) {
	if _, err := FromSlice(2, 3, make([]float64, 5)); err == nil {
		t.Fatal("bad length accepted")
	}
	m, err := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v", m.At(1, 0))
	}
}

func TestMatMulKnown(t *testing.T) {
	a, _ := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b, _ := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := NewMatrix(2, 2)
	MatMulInto(c, a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("matmul[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(5, 5)
	a.Randomize(rng, 1)
	id := NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	c := NewMatrix(5, 5)
	MatMulInto(c, a, id)
	for i := range a.Data {
		if math.Abs(c.Data[i]-a.Data[i]) > 1e-12 {
			t.Fatal("A*I != A")
		}
	}
}

func TestMatMulAssociativeWithTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		r, k, c := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := NewMatrix(r, k)
		a.Randomize(rng, 1)
		b := NewMatrix(k, c)
		b.Randomize(rng, 1)
		ab := NewMatrix(r, c)
		MatMulInto(ab, a, b)
		// (AB)^T == B^T A^T
		left := transposed(ab)
		right := NewMatrix(c, r)
		MatMulInto(right, transposed(b), transposed(a))
		for i := range left.Data {
			if math.Abs(left.Data[i]-right.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMatrix(4, 7)
	m.Randomize(rng, 1)
	tt := transposed(transposed(m))
	for i := range m.Data {
		if m.Data[i] != tt.Data[i] {
			t.Fatal("transpose twice is not identity")
		}
	}
}

func TestAddRowVector(t *testing.T) {
	m, _ := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if err := m.AddRowVector([]float64{10, 20}); err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 22, 13, 24}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("AddRowVector: got %v", m.Data)
		}
	}
	if err := m.AddRowVector([]float64{1}); err == nil {
		t.Fatal("bad vector length accepted")
	}
}

func TestAxpy(t *testing.T) {
	x, _ := FromSlice(1, 3, []float64{1, 2, 3})
	y, _ := FromSlice(1, 3, []float64{10, 10, 10})
	if err := Axpy(2, x, y); err != nil {
		t.Fatal(err)
	}
	want := []float64{12, 14, 16}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("axpy got %v", y.Data)
		}
	}
	bad := NewMatrix(2, 2)
	if err := Axpy(1, x, bad); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("dot wrong")
	}
}

func TestSoftmaxRows(t *testing.T) {
	m, _ := FromSlice(2, 3, []float64{1, 2, 3, 1000, 1000, 1000})
	m.SoftmaxRows()
	for i := 0; i < 2; i++ {
		var sum float64
		for _, v := range m.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	if !(m.At(0, 2) > m.At(0, 1) && m.At(0, 1) > m.At(0, 0)) {
		t.Fatal("softmax not monotone")
	}
	// Large-value row must not produce NaN (stability).
	for _, v := range m.Row(1) {
		if math.IsNaN(v) {
			t.Fatal("softmax NaN on large inputs")
		}
	}
}

func TestMatMulIntoPanicsOnShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad MatMulInto shapes")
		}
	}()
	MatMulInto(NewMatrix(1, 1), NewMatrix(2, 3), NewMatrix(4, 5))
}
