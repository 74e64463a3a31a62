package fft

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func TestDCTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{1, 2, 4, 8, 16} {
		block := make([]float64, n*n)
		for i := range block {
			block[i] = rng.NormFloat64()
		}
		coef, err := DCT2D(block, n)
		if err != nil {
			t.Fatal(err)
		}
		back := naiveIDCT2D(coef, n)
		for i := range block {
			if math.Abs(back[i]-block[i]) > 1e-9 {
				t.Fatalf("n=%d: DCT round trip differs at %d", n, i)
			}
		}
	}
}

func TestDCTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	f := func() bool {
		n := 1 + rng.Intn(12)
		block := make([]float64, n*n)
		var e1 float64
		for i := range block {
			block[i] = rng.NormFloat64()
			e1 += block[i] * block[i]
		}
		coef, err := DCT2D(block, n)
		if err != nil {
			return false
		}
		var e2 float64
		for _, v := range coef {
			e2 += v * v
		}
		return math.Abs(e1-e2) < 1e-6*(1+e1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDCTDCTerm(t *testing.T) {
	const n = 4
	block := make([]float64, n*n)
	for i := range block {
		block[i] = 2.5
	}
	coef, err := DCT2D(block, n)
	if err != nil {
		t.Fatal(err)
	}
	// Orthonormal DCT: DC term = n * mean value; all others 0.
	if math.Abs(coef[0]-2.5*n) > eps {
		t.Fatalf("DC = %v, want %v", coef[0], 2.5*n)
	}
	for i := 1; i < len(coef); i++ {
		if math.Abs(coef[i]) > eps {
			t.Fatalf("AC term %d = %v, want 0", i, coef[i])
		}
	}
}

func TestDCTValidation(t *testing.T) {
	if _, err := DCT2D(make([]float64, 5), 2); err == nil {
		t.Fatal("bad block accepted")
	}
	if _, err := DCT2D(nil, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestZigzag(t *testing.T) {
	got := Zigzag(3)
	want := []int{0, 1, 3, 6, 4, 2, 5, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("zigzag = %v, want %v", got, want)
		}
	}
}

func TestZigzagIsPermutation(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 12} {
		order := Zigzag(n)
		if len(order) != n*n {
			t.Fatalf("n=%d: len = %d", n, len(order))
		}
		seen := make([]bool, n*n)
		for _, idx := range order {
			if idx < 0 || idx >= n*n || seen[idx] {
				t.Fatalf("n=%d: invalid or duplicate index %d", n, idx)
			}
			seen[idx] = true
		}
	}
}

// naiveDCTMatrix and naiveDCT2D are the pre-plan transform, kept verbatim
// as the reference the plan must reproduce bit for bit: the basis rebuilt
// per call, tmp = C*X then out = tmp*C^T, every sum accumulated from zero
// in ascending k. naiveIDCT2D is its inverse, C^T*Y*C, which the round
// trip undoes a DCT2D with.
func naiveDCTMatrix(n int) []float64 {
	c := make([]float64, n*n)
	a0 := math.Sqrt(1 / float64(n))
	a := math.Sqrt(2 / float64(n))
	for i := 0; i < n; i++ {
		scale := a
		if i == 0 {
			scale = a0
		}
		for j := 0; j < n; j++ {
			c[i*n+j] = scale * math.Cos(math.Pi*float64(i)*(2*float64(j)+1)/(2*float64(n)))
		}
	}
	return c
}

func naiveDCT2D(block []float64, n int) []float64 {
	c := naiveDCTMatrix(n)
	tmp := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += c[i*n+k] * block[k*n+j]
			}
			tmp[i*n+j] = s
		}
	}
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += tmp[i*n+k] * c[j*n+k]
			}
			out[i*n+j] = s
		}
	}
	return out
}

func naiveIDCT2D(coef []float64, n int) []float64 {
	c := naiveDCTMatrix(n)
	tmp := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += c[k*n+i] * coef[k*n+j]
			}
			tmp[i*n+j] = s
		}
	}
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += tmp[i*n+k] * c[k*n+j]
			}
			out[i*n+j] = s
		}
	}
	return out
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %x (%v), want %x (%v)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestDCTPlanBitIdenticalToNaive pins the plan to the reference: every
// block of an image transformed where it lies, for full and prefix
// coefficient sets, power-of-two and other n (a ragged n never reaches
// the assembly kernel), square and oblong images, with scratch that
// starts too short and is then handed back full of NaN; and DCT2D on
// single blocks.
func TestDCTPlanBitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{4, 8, 16, 6} {
		p, err := PlanDCT(n)
		if err != nil {
			t.Fatal(err)
		}
		zig := Zigzag(n)
		var scratch []float64
		for trial := 0; trial < 8; trial++ {
			bw, bh := 1+rng.Intn(5), 1+rng.Intn(5)
			if trial == 1 {
				bw, bh = 16, 16 // the zoo's raster when n is 8
			}
			w, h := bw*n, bh*n
			img := make([]float64, w*h)
			for i := range img {
				img[i] = rng.NormFloat64()
				if trial == 0 { // raster-like: exact zeros and ones
					img[i] = float64(rng.Intn(2))
				}
			}
			full := make([][]float64, bw*bh) // naive coefficients, per block
			block := make([]float64, n*n)
			for by := 0; by < bh; by++ {
				for bx := 0; bx < bw; bx++ {
					for y := 0; y < n; y++ {
						copy(block[y*n:(y+1)*n], img[(by*n+y)*w+bx*n:])
					}
					full[by*bw+bx] = naiveDCT2D(block, n)
				}
			}
			for _, coefs := range []int{n * n, n * n / 4, 1, 1 + rng.Intn(n*n)} {
				want := make([]float64, coefs*bw*bh)
				for k := 0; k < coefs; k++ {
					for blk, f := range full {
						want[k*bw*bh+blk] = f[zig[k]]
					}
				}
				got := make([]float64, len(want))
				for i := range scratch {
					scratch[i] = math.NaN() // stale scratch must not leak
				}
				if scratch, err = p.ForwardBlocks(got, img, w, h, coefs, scratch); err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("n=%d %dx%d blocks, %d coefs", n, bw, bh, coefs), got, want)
			}
			got, err := DCT2D(block, n)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "DCT2D", got, full[len(full)-1])
		}
	}
}

func TestDCTPlanIsMemoisedAndReadOnly(t *testing.T) {
	a, err := PlanDCT(8)
	if err != nil {
		t.Fatal(err)
	}
	basis := append([]float64(nil), a.fwd...)
	block := make([]float64, 64)
	for i := range block {
		block[i] = float64(i%7) - 3
	}
	if _, err := DCT2D(block, 8); err != nil {
		t.Fatal(err)
	}
	b, err := PlanDCT(8)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("PlanDCT(8) built a second plan")
	}
	sameBits(t, "basis after use", b.fwd, basis)
	sameBits(t, "basis vs reference", b.fwd, naiveDCTMatrix(8))
	if _, err := PlanDCT(0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestDCTPlanValidation(t *testing.T) {
	p, err := PlanDCT(4)
	if err != nil {
		t.Fatal(err)
	}
	pix, out := make([]float64, 8*12), make([]float64, 16*6)
	for name, call := range map[string]func() error{
		"width off the block":  func() error { _, err := p.ForwardBlocks(out, pix[:7*12], 7, 12, 4, nil); return err },
		"height off the block": func() error { _, err := p.ForwardBlocks(out, pix[:8*10], 8, 10, 4, nil); return err },
		"empty image":          func() error { _, err := p.ForwardBlocks(out, nil, 0, 0, 4, nil); return err },
		"short image":          func() error { _, err := p.ForwardBlocks(out, pix[:95], 8, 12, 4, nil); return err },
		"long image":           func() error { _, err := p.ForwardBlocks(out, append(pix, 0), 8, 12, 4, nil); return err },
		"no coefficients":      func() error { _, err := p.ForwardBlocks(out, pix, 8, 12, 0, nil); return err },
		"too many":             func() error { _, err := p.ForwardBlocks(out, pix, 8, 12, 17, nil); return err },
		"short out":            func() error { _, err := p.ForwardBlocks(out[:6*3-1], pix, 8, 12, 3, nil); return err },
	} {
		if err := call(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// An out with room to spare is fine, and a refused call hands the
	// caller's scratch back.
	scratch, err := p.ForwardBlocks(out, pix, 8, 12, 16, nil)
	if err != nil {
		t.Fatalf("whole image refused: %v", err)
	}
	if back, err := p.ForwardBlocks(out, pix, 8, 12, 17, scratch); err == nil || len(back) != len(scratch) {
		t.Fatalf("refused call returned scratch of %d (err %v), want the caller's %d", len(back), err, len(scratch))
	}
}
