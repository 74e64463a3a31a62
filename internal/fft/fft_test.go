package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func TestIsPow2(t *testing.T) {
	for n, want := range map[int]bool{0: false, 1: true, 2: true, 3: false, 4: true, 6: false, 1024: true, -4: false} {
		if got := IsPow2(n); got != want {
			t.Errorf("IsPow2(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestNextPow2(t *testing.T) {
	for n, want := range map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 8: 8, 9: 16, 100: 128} {
		if got := NextPow2(n); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFFTRejectsNonPow2(t *testing.T) {
	if err := FFT(make([]complex128, 3)); err == nil {
		t.Fatal("length 3 accepted")
	}
	if err := FFT2D(make([]complex128, 12), 3, 4); err == nil {
		t.Fatal("3x4 accepted")
	}
	if err := FFT2D(make([]complex128, 10), 4, 4); err == nil {
		t.Fatal("bad buffer length accepted")
	}
}

func TestFFTImpulse(t *testing.T) {
	x := make([]complex128, 8)
	x[0] = 1
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > eps {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	const n = 16
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*3*float64(i)/n))
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		want := 0.0
		if i == 3 {
			want = n
		}
		if math.Abs(cmplx.Abs(v)-want) > 1e-9 {
			t.Fatalf("bin %d magnitude = %v, want %v", i, cmplx.Abs(v), want)
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 8, 64, 256} {
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		if err := FFT(x); err != nil {
			t.Fatal(err)
		}
		if err := IFFT(x); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d: round trip differs at %d: %v vs %v", n, i, x[i], orig[i])
			}
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	f := func() bool {
		n := 1 << (1 + rng.Intn(7))
		x := make([]complex128, n)
		var timeEnergy float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			timeEnergy += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		if err := FFT(x); err != nil {
			return false
		}
		var freqEnergy float64
		for _, v := range x {
			freqEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(freqEnergy/float64(n)-timeEnergy) < 1e-6*(1+timeEnergy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFFT2DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const w, h = 16, 8
	x := make([]complex128, w*h)
	orig := make([]complex128, w*h)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		orig[i] = x[i]
	}
	if err := FFT2D(x, w, h); err != nil {
		t.Fatal(err)
	}
	if err := IFFT2D(x, w, h); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
			t.Fatalf("2D round trip differs at %d", i)
		}
	}
}

func directConvolveSame(img []float64, w, h int, k []float64, kw, kh int) []float64 {
	out := make([]float64, w*h)
	ox, oy := kw/2, kh/2
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var s float64
			for j := 0; j < kh; j++ {
				for i := 0; i < kw; i++ {
					// out[y][x] = sum img[y - (j-oy)][x - (i-ox)] * k[j][i]
					yy := y - (j - oy)
					xx := x - (i - ox)
					if yy < 0 || xx < 0 || yy >= h || xx >= w {
						continue
					}
					s += img[yy*w+xx] * k[j*kw+i]
				}
			}
			out[y*w+x] = s
		}
	}
	return out
}

func TestConvolveSameMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const w, h, kw, kh = 13, 9, 5, 3
	img := make([]float64, w*h)
	for i := range img {
		img[i] = rng.Float64()
	}
	k := make([]float64, kw*kh)
	for i := range k {
		k[i] = rng.NormFloat64()
	}
	got, err := ConvolveSame(img, w, h, k, kw, kh)
	if err != nil {
		t.Fatal(err)
	}
	want := directConvolveSame(img, w, h, k, kw, kh)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("conv differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestConvolveIdentityKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const w, h = 8, 8
	img := make([]float64, w*h)
	for i := range img {
		img[i] = rng.Float64()
	}
	k := []float64{0, 0, 0, 0, 1, 0, 0, 0, 0} // 3x3 delta
	got, err := ConvolveSame(img, w, h, k, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range img {
		if math.Abs(got[i]-img[i]) > 1e-9 {
			t.Fatalf("identity convolution changed pixel %d", i)
		}
	}
}

func TestConvolveValidation(t *testing.T) {
	if _, err := ConvolveSame(make([]float64, 5), 2, 2, nil, 0, 0); err == nil {
		t.Fatal("bad image length accepted")
	}
	if _, err := ConvolveSame(make([]float64, 4), 2, 2, make([]float64, 3), 2, 2); err == nil {
		t.Fatal("bad kernel length accepted")
	}
}

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
		back, err := IDCT2D(coef, n)
		if err != nil {
			t.Fatal(err)
		}
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
	if _, err := IDCT2D(make([]float64, 5), 2); err == nil {
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

// naiveDCTMatrix, naiveDCT2D and naiveIDCT2D are the pre-plan transforms,
// kept verbatim as the reference the plan must reproduce bit for bit: the
// basis rebuilt per call, tmp = C*X then out = tmp*C^T, every sum
// accumulated from zero in ascending k.
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
// starts too short and is then handed back full of NaN; and DCT2D and
// IDCT2D on single blocks.
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
			if got, err = IDCT2D(block, n); err != nil {
				t.Fatal(err)
			}
			sameBits(t, "IDCT2D", got, naiveIDCT2D(block, n))
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
