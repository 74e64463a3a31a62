package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// naiveMatMul is the reference i-j-k implementation the kernels are
// checked against.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func randMat(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	m.Randomize(rng, 1)
	// Sprinkle exact zeros so the zero-skip path is exercised.
	for i := range m.Data {
		if rng.Intn(7) == 0 {
			m.Data[i] = 0
		}
	}
	return m
}

// TestMatMulIntoMatchesNaive: the cache-blocked kernel agrees with the
// naive triple loop within 1e-9 across randomized shapes, including
// shapes that straddle the tile boundaries.
func TestMatMulIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{
		{1, 1, 1}, {1, 5, 3}, {7, 1, 9}, {3, 64, 2},
		{5, 63, 65}, {2, 65, 513}, {9, 128, 512}, {33, 100, 700},
	}
	for trial := 0; trial < 20; trial++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(40), 1 + rng.Intn(200), 1 + rng.Intn(600)})
	}
	for _, sh := range shapes {
		a := randMat(rng, sh[0], sh[1])
		b := randMat(rng, sh[1], sh[2])
		want := naiveMatMul(a, b)
		got := NewMatrix(sh[0], sh[2])
		// Pre-dirty dst: the kernel must zero what it owns.
		got.Randomize(rng, 5)
		MatMulInto(got, a, b)
		for i := range want.Data {
			if d := math.Abs(got.Data[i] - want.Data[i]); d > 1e-9 {
				t.Fatalf("shape %v: element %d differs by %g", sh, i, d)
			}
		}
	}
}

// TestParallelMatMulEquivalence: the parallel kernel is bit-identical to
// the serial one for every worker count, across randomized shapes.
func TestParallelMatMulEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	workerCounts := []int{1, 2, 3, runtime.NumCPU(), runtime.NumCPU() + 3, 64}
	for trial := 0; trial < 25; trial++ {
		r := 1 + rng.Intn(70)
		k := 1 + rng.Intn(150)
		c := 1 + rng.Intn(300)
		a := randMat(rng, r, k)
		b := randMat(rng, k, c)
		want := NewMatrix(r, c)
		MatMulInto(want, a, b)
		for _, w := range workerCounts {
			got := NewMatrix(r, c)
			got.Randomize(rng, 3)
			ParallelMatMulIntoWorkers(got, a, b, w)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("trial %d shape %dx%dx%d workers=%d: element %d = %v, want %v (must be bit-identical)",
						trial, r, k, c, w, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestParallelMatMulDefaultEntry covers the NumCPU entry point and the
// zero-row edge.
func TestParallelMatMulDefaultEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// 128*160*128 multiply-adds is past parallelMinWork, so the default
	// entry really shards.
	a := randMat(rng, 128, 160)
	b := randMat(rng, 160, 128)
	want := NewMatrix(128, 128)
	MatMulInto(want, a, b)
	got := NewMatrix(128, 128)
	ParallelMatMulInto(got, a, b)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("element %d = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}

	empty := NewMatrix(0, 128)
	ParallelMatMulInto(empty, NewMatrix(0, 160), b) // must not panic
}

// TestParallelMatMulShapePanic: shape mismatches panic exactly like the
// serial kernel.
func TestParallelMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched shapes did not panic")
		}
	}()
	ParallelMatMulInto(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(4, 2))
}

// TestParallelMatMulConcurrentUse: many goroutines running parallel
// matmuls over shared (read-only) operands into private outputs; run
// under -race this proves workers never touch rows they do not own.
func TestParallelMatMulConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randMat(rng, 60, 120)
	b := randMat(rng, 120, 90)
	want := NewMatrix(60, 90)
	MatMulInto(want, a, b)

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := NewMatrix(60, 90)
			ParallelMatMulIntoWorkers(dst, a, b, 1+g%5)
			for i := range want.Data {
				if dst.Data[i] != want.Data[i] {
					errs <- "goroutine result diverged"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}
