// Kernel equivalence tests for the inference path: the addressed-product
// conv and the conv -> ReLU -> pool pass against the eval-mode Forward
// (im2col + matmul) and the separate layers (bit-identical). The training
// pass's own are beside its golden, in trainstep_test.go.

package nn

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/golitho/hsd/internal/tensor"
)

// convGeometries covers stride 1 and 2 (the addressed product and the
// gathered fallback), pad 0/1/2, kernel 1/2/3/5, and non-square inputs,
// including pad >= k (empty stencil interior), single-position outputs,
// output widths on, past and short of the kernel's 8-column panel, and
// output channel counts off its 4-row group.
func convGeometries() []*Conv2D {
	return []*Conv2D{
		NewConv2D(16, 16, 16, 16, 3, 1, 1), // the zoo's two stages
		NewConv2D(16, 8, 8, 24, 3, 1, 1),
		NewConv2D(3, 10, 19, 5, 3, 1, 1), // ow 19: two panels and a ragged 3
		NewConv2D(2, 6, 13, 7, 5, 1, 2),  // ow 13, k=5, pad 2
		NewConv2D(5, 4, 8, 3, 1, 1, 0),   // pointwise, ow 8
		NewConv2D(2, 5, 30, 2, 3, 2, 1),  // stride 2, ow 15

		NewConv2D(1, 5, 5, 2, 3, 1, 1),
		NewConv2D(3, 8, 8, 4, 3, 1, 1),
		NewConv2D(2, 7, 11, 3, 3, 1, 0), // non-square, no pad
		NewConv2D(2, 9, 6, 3, 3, 2, 1),  // stride 2
		NewConv2D(1, 6, 6, 2, 2, 1, 0),  // even kernel
		NewConv2D(1, 8, 8, 2, 2, 2, 1),
		NewConv2D(2, 9, 9, 2, 5, 1, 2), // k=5
		NewConv2D(1, 7, 9, 2, 5, 2, 2), // k=5 stride 2, non-square
		NewConv2D(1, 4, 4, 1, 1, 1, 0), // pointwise
		NewConv2D(1, 3, 3, 1, 3, 1, 2), // pad 2 > k-1-pad: edge-heavy
		NewConv2D(1, 3, 3, 1, 3, 1, 0), // single output position
	}
}

// TestFusedConvMatchesForward: the inference conv is bit-identical to
// the eval-mode Forward (im2col + matmul) for every geometry and
// batch size, with non-zero biases: both accumulate each output element
// over ascending (ch, ky, kx) from zero on the one kernel, and the zero
// border stands where im2col writes its zeros.
func TestFusedConvMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, conv := range convGeometries() {
		net := NewNetwork(conv)
		net.Init(rng)
		for i := range conv.B {
			conv.B[i] = rng.NormFloat64()
		}
		dim := conv.InC * conv.InH * conv.InW
		ar := NewArena()
		for _, rows := range []int{1, 3, 32} {
			x := tensor.NewMatrix(rows, dim)
			x.Randomize(rng, 1)
			want := net.Forward(x, false)
			got := net.ForwardBatch(x, ar)
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%s rows=%d: element %d = %v, want %v (bitwise)",
						conv.Name(), rows, i, got.Data[i], want.Data[i])
				}
			}
			ar.Reset()
		}
	}
}

// tailInputs is a batch for a (1, h, w) pointwise convolution whose 2x2
// windows hold the cases the conv -> ReLU -> pool pass must agree with
// the three layers on: NaN alone, among negatives and among positives,
// both zeros, both infinities, all-negative and all-NaN windows, the
// rest random.
func tailInputs(rng *rand.Rand, rows, h, w int) *tensor.Matrix {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	windows := [][4]float64{
		{nan, nan, nan, nan}, {nan, -1, -2, -3}, {nan, 2, -1, 1}, {1, nan, 3, nan},
		{negZero, negZero, negZero, negZero}, {0, negZero, -1, nan}, {negZero, 0, negZero, 0},
		{-inf, -inf, -inf, -inf}, {-inf, nan, -inf, -1}, {inf, 1, nan, -inf}, {inf, inf, inf, inf},
		{-1, -2, -3, -4}, {-5e-324, -1, -1, -1}, {5e-324, -1, nan, 0}, {3, 3, 3, 3}, {-2, 0, 0, 0},
	}
	x := tensor.NewMatrix(rows, h*w)
	x.Randomize(rng, 1)
	for i := 0; i < rows; i++ {
		row := x.Row(i)
		for n, win := range windows {
			py, px := (n+i)%(h/2), ((n+i)/(h/2))%(w/2)
			row[2*py*w+2*px], row[2*py*w+2*px+1] = win[0], win[1]
			row[(2*py+1)*w+2*px], row[(2*py+1)*w+2*px+1] = win[2], win[3]
		}
	}
	return x
}

// TestConvReLUPoolTailBits holds the one-pass bias + ReLU + pool to the
// three separate forwardInfer calls, by Float64bits, where max and the
// ReLU could be suspected of not commuting. The pass over the sums is
// called directly first (a sum is never -0, so only there can -0 meet
// the pool, under a bias of -0), then the whole run through ForwardBatch
// on a pointwise convolution with unit weight, whose sums are its input.
func TestConvReLUPoolTailBits(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const h, w = 8, 12
	conv := NewConv2D(1, h, w, 1, 1, 1, 0)
	relu, pool := NewReLU(h*w), NewMaxPool2D(1, h, w, 2)
	net := NewNetwork(conv, relu, pool)
	conv.W.Data[0] = 1
	same := func(what string, got, want *tensor.Matrix) {
		t.Helper()
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s: element %d = %v (bits %x), three passes give %v (bits %x)", what, i,
					got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
			}
		}
	}
	for _, bias := range []float64{0, math.Copysign(0, -1), 0.5, -0.5, math.Inf(-1), math.NaN()} {
		conv.B[0] = bias
		x := tailInputs(rng, 3, h, w)
		biased := x.Clone()
		for i := 0; i < biased.Rows; i++ {
			conv.addBias(biased.Row(i))
		}
		want := pool.forwardInfer(relu.forwardInfer(biased, NewArena()), NewArena())
		same("pass over the sums", conv.biasReLUPool(x, NewArena()), want)
		for _, v := range want.Data {
			if !(v >= 0) || math.Signbit(v) {
				t.Fatalf("bias %v: the three passes let %v through", bias, v)
			}
		}

		if net.convReLUPoolAt(0) != conv {
			t.Fatal("conv -> relu -> pool(2) over the conv's output is not taken in one pass")
		}
		ar := NewArena()
		want = pool.forwardInfer(relu.forwardInfer(conv.forwardInfer(x, ar), ar), ar)
		same("ForwardBatch", net.ForwardBatch(x, NewArena()), want)
	}
}

// TestConvReLUPoolOnlyOverItsOwnOutput: anything but ReLU then a 2x2 pool
// of exactly the conv's shape runs layer by layer.
func TestConvReLUPoolOnlyOverItsOwnOutput(t *testing.T) {
	conv := func() *Conv2D { return NewConv2D(2, 8, 8, 4, 3, 1, 1) }
	for name, layers := range map[string][]Layer{
		"batchnorm between": {conv(), NewBatchNorm(256), NewReLU(256), NewMaxPool2D(4, 8, 8, 2)},
		"pool of 4":         {conv(), NewReLU(256), NewMaxPool2D(4, 8, 8, 4)},
		"pool reshaped":     {conv(), NewReLU(256), NewMaxPool2D(2, 16, 8, 2)},
		"no pool":           {conv(), NewReLU(256), NewDense(256, 2)},
		"ends at relu":      {conv(), NewReLU(256)},
	} {
		if NewNetwork(layers...).convReLUPoolAt(0) != nil {
			t.Errorf("%s: taken for the one-pass run", name)
		}
	}
}

// TestReLUInferenceRuleAgrees: eval-mode Forward and forwardInfer apply
// one rule (NaN, -0 and negatives become +0), so Score's "bit-identical
// to Forward(x, false)" holds on any input; the training pass keeps its
// own, which lets NaN and -0 through with their gradient.
func TestReLUInferenceRuleAgrees(t *testing.T) {
	negZero := math.Copysign(0, -1)
	in := []float64{math.NaN(), negZero, 0, math.Inf(1), math.Inf(-1), -5e-324, 5e-324, -1, 1}
	want := []float64{0, 0, 0, math.Inf(1), 0, 0, 5e-324, 0, 1}
	r := NewReLU(len(in))
	x := &tensor.Matrix{Rows: 1, Cols: len(in), Data: in}
	for name, got := range map[string]*tensor.Matrix{
		"Forward(x, false)": r.Forward(x, false),
		"forwardInfer":      r.forwardInfer(x, NewArena()),
	} {
		for i := range want {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s(%v) = %v (bits %x), want %v", name, in[i], got.Data[i], math.Float64bits(got.Data[i]), want[i])
			}
		}
	}
	train := r.Forward(x, true)
	if !math.IsNaN(train.Data[0]) || math.Float64bits(train.Data[1]) != math.Float64bits(negZero) {
		t.Errorf("training Forward gave %v and %v for NaN and -0: its mask rule moved", train.Data[0], train.Data[1])
	}
	grad := tensor.NewMatrix(1, len(in))
	for i := range grad.Data {
		grad.Data[i] = 1
	}
	for i, g := range r.Backward(grad).Data {
		if pass := !(in[i] < 0); (g == 1) != pass {
			t.Errorf("training gradient at %v = %v, want pass=%v", in[i], g, pass)
		}
	}
}

// TestPredictBatchCtxCancellation: a cancelled context surfaces as an
// error with no partial result.
func TestPredictBatchCtxCancellation(t *testing.T) {
	net := testNetworks(t, 38)["mlp"]
	x := randRows(rand.New(rand.NewSource(38)), 300, inDim(net))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := PredictBatchCtx(ctx, net, x, 2)
	if err == nil {
		t.Fatal("cancelled context returned nil error")
	}
	if got != nil {
		t.Fatal("cancelled context returned a partial result")
	}
}
