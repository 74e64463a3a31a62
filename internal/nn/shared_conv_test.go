package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/golitho/hsd/internal/tensor"
)

// slidingWindows is a row of n windows of the zoo's (16, 16, 16) tensor,
// each s columns right of the one before, cut from one wider tensor:
// what a scan's windows along a shard row are to the first convolution.
// plant puts NaN, both zeros and both infinities into cells that the
// second window shares with the first, on windows' edges (their first
// and last columns and rows), or neither.
func slidingWindows(rng *rand.Rand, n, s int, plant bool) [][]float64 {
	const c, h, w = 16, 16, 16
	wide := w + (n-1)*s
	strip := make([]float64, c*h*wide)
	for i := range strip {
		strip[i] = rng.NormFloat64()
	}
	if plant {
		nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
		for _, p := range []struct {
			ch, y, x int
			v        float64
		}{
			{3, 5, s + 2, nan},    // shared by windows 0 and 1
			{7, 9, s + 3, inf},    // shared
			{8, 0, s + 1, -inf},   // shared, on the top edge
			{1, 15, s + 4, nan},   // shared, on the bottom edge
			{2, 6, 2 * s, inf},    // window 2's first column
			{4, 7, 2*s + 15, nan}, // window 2's last column
			{5, 0, 0, -inf},       // window 0's corner
			{6, 15, wide - 1, nan},
		} {
			strip[(p.ch*h+p.y)*wide+p.x] = p.v
		}
		// A run of -0 down one shared column of every channel, and +0
		// beside it.
		for ch := 0; ch < c; ch++ {
			for y := 0; y < h; y++ {
				strip[(ch*h+y)*wide+s+5] = negZero
				strip[(ch*h+y)*wide+s+6] = 0
			}
		}
	}
	out := make([][]float64, n)
	for i := range out {
		win := make([]float64, c*h*w)
		for ch := 0; ch < c; ch++ {
			for y := 0; y < h; y++ {
				copy(win[(ch*h+y)*w:][:w], strip[(ch*h+y)*wide+i*s:])
			}
		}
		out[i] = win
	}
	return out
}

// transposedPlane is sample zero-bordered and stored transposed, the
// plane TransposedTaps addresses.
func transposedPlane(c *Conv2D, sample []float64) []float64 {
	ph, pw := c.InH+2*c.Pad, c.InW+2*c.Pad
	plane := make([]float64, c.InC*pw*ph)
	for ch := 0; ch < c.InC; ch++ {
		for y := 0; y < c.InH; y++ {
			for x := 0; x < c.InW; x++ {
				plane[(ch*pw+x+c.Pad)*ph+y+c.Pad] = sample[(ch*c.InH+y)*c.InW+x]
			}
		}
	}
	return plane
}

// copyShared copies the columns a window shares with its left neighbour,
// [p, W-p-s), into its transposed sums dst from the neighbour's, s
// columns on, as the scan farm's memo does, and returns that range.
func copyShared(c *Conv2D, dst, left []float64, s int) (lo, hi int) {
	h, w := c.OutH(), c.OutW()
	lo, hi = c.Pad, w-c.Pad-s
	for oc := 0; oc < c.OutC; oc++ {
		at := oc*h*w + lo*h
		copy(dst[at:at+(hi-lo)*h], left[at+s*h:])
	}
	return lo, hi
}

// TestSharedColumnConv1Bits holds the scan farm's first convolution to
// the whole-window one, by Float64bits. Along a row of windows s cells
// apart, each window after the first copies its columns [p, W-p-s) from
// its left neighbour's sums s columns on and computes only the others,
// over a transposed plane; its sums must be paddedSums' transposed, its
// pooled cells biasReLUPool's, and its ScoreConvSums Score's. At 2 tiles
// a side s is 8 (6 columns copied), at 4 it is 4 (10 copied). NaN, both
// zeros and both infinities sit in shared cells and on the edges, or in
// one weight.
func TestSharedColumnConv1Bits(t *testing.T) {
	for _, perSide := range []int{2, 4} {
		for _, plant := range []string{"none", "inputs", "weight"} {
			t.Run(fmt.Sprintf("%d-per-side/%s", perSide, plant), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(71 + perSide)))
				net, err := BuildCNN(CNNConfig{InC: 16, InH: 16, InW: 16, Conv1: 16, Conv2: 24, Hidden: 48, DropoutP: 0.1, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				net.Init(rng)
				c := net.FirstConv()
				if c == nil {
					t.Fatal("the zoo's CNN has no FirstConv")
				}
				for i := range c.B {
					c.B[i] = rng.NormFloat64() * 0.1
				}
				if plant == "weight" {
					c.W.Data[5*c.W.Cols+40] = math.NaN()
				}
				s := 16 / perSide
				testSharedColumns(t, net, c, s, slidingWindows(rng, 5, s, plant == "inputs"))
			})
		}
	}
}

func testSharedColumns(t *testing.T, net *Network, c *Conv2D, s int, windows [][]float64) {
	t.Helper()
	g := c.geom()
	od, h, w := c.OutDim(), c.OutH(), c.OutW()
	taps := c.TransposedTaps()
	bufs := [2][]float64{make([]float64, od), make([]float64, od)}
	odd := 0 // shared cells that are NaN, infinite or zero
	for i, sample := range windows {
		padded := make([]float64, g.paddedLen())
		padSample(g, sample, padded)
		want := &tensor.Matrix{Rows: 1, Cols: od, Data: make([]float64, od)}
		c.paddedSums(g, padded, want.Data)

		sumsT, left := bufs[i%2], bufs[(i+1)%2]
		for k := range sumsT {
			sumsT[k] = math.NaN() // whatever the window before left there
		}
		plane := transposedPlane(c, sample)
		r0, r1 := 0, 0
		if i > 0 {
			r0, r1 = copyShared(c, sumsT, left, s)
		}
		c.SumRows(sumsT, plane, taps, c.InH+2*c.Pad, h, 0, r0)
		c.SumRows(sumsT, plane, taps, c.InH+2*c.Pad, h, r1, w)

		for oc := 0; oc < c.OutC; oc++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					got, exp := sumsT[(oc*w+x)*h+y], want.Data[(oc*h+y)*w+x]
					if math.Float64bits(got) != math.Float64bits(exp) {
						t.Fatalf("window %d: sum (%d, %d, %d) = %v (bits %x), whole window gives %v (bits %x)",
							i, oc, y, x, got, math.Float64bits(got), exp, math.Float64bits(exp))
					}
					if x >= r0 && x < r1 && (math.IsNaN(got) || math.IsInf(got, 0) || got == 0) {
						odd++
					}
				}
			}
		}

		pooled := make([]float64, od/4)
		c.biasReLUPoolTransposed(sumsT, pooled)
		wantPooled := c.biasReLUPool(want, NewArena())
		for k, v := range wantPooled.Data {
			if math.Float64bits(pooled[k]) != math.Float64bits(v) {
				t.Fatalf("window %d: pooled cell %d = %v, biasReLUPool gives %v", i, k, pooled[k], v)
			}
		}
		if got, exp := ScoreConvSums(net, sumsT), Score(net, sample); math.Float64bits(got) != math.Float64bits(exp) {
			t.Fatalf("window %d: ScoreConvSums = %v, Score = %v", i, got, exp)
		}
	}
	if odd == 0 && (math.IsNaN(c.W.Data[5*c.W.Cols+40]) || math.IsNaN(windows[1][(3*16+5)*16+2])) {
		t.Fatal("no NaN, infinity or zero reached a copied sum: the plants missed the shared columns")
	}
}

// TestReLUPoolEveryPattern holds reluPool, which compares bit patterns as
// integers, to the three layers' rule spelt out (the inference ReLU, then
// the pool's > from -Inf) over every window of four drawn from values
// whose patterns sit at the edges of that comparison: both zeros, both
// infinities, the smallest and largest finite magnitudes, and NaNs with
// and without the sign bit (x86 makes the latter from Inf - Inf).
func TestReLUPoolEveryPattern(t *testing.T) {
	vals := []float64{
		math.NaN(), math.Float64frombits(0xFFF8000000000000), math.Float64frombits(0x7FF0000000000001),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, 1, -1, 2,
	}
	want := func(w [4]float64) float64 {
		best := math.Inf(-1)
		for _, v := range w {
			if !(v > 0) {
				v = 0
			}
			if v > best {
				best = v
			}
		}
		return best
	}
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				for _, d := range vals {
					w := [4]float64{a, b, c, d}
					got, exp := reluPool(a, b, c, d), want(w)
					if math.Float64bits(got) != math.Float64bits(exp) {
						t.Fatalf("reluPool%v = %v (bits %x), the three layers give %v (bits %x)",
							w, got, math.Float64bits(got), exp, math.Float64bits(exp))
					}
				}
			}
		}
	}
}
