// Kernel equivalence tests for the inference fast path: the fused
// im2col+matmul conv against the training-path Forward (bit-identical).

package nn

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/golitho/hsd/internal/tensor"
)

// convGeometries covers stride 1 and 2, pad 0/1/2, kernel 1/2/3/5, and
// non-square inputs, including pad >= k (empty stencil interior) and
// single-position outputs.
func convGeometries() []*Conv2D {
	return []*Conv2D{
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

// TestFusedConvMatchesForward: the fused conv kernel is bit-identical to
// the training-path Forward (im2col + blocked matmul) for every geometry
// and batch size: both paths accumulate each output element over
// ascending (ch, ky, kx) with left-associated adds, and skipping the
// padded zero taps cannot flip a bit of a finite sum.
func TestFusedConvMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, conv := range convGeometries() {
		net := NewNetwork(conv)
		net.Init(rng)
		dim := conv.InC * conv.InH * conv.InW
		ar := NewArena()
		for _, rows := range []int{1, 3} {
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
