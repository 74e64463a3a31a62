package nn

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// smallNet is a small MLP with dropout, so a test of the training loop
// runs the dropout stream too.
func smallNet() *Network {
	return NewNetwork(
		NewDense(6, 8), NewReLU(8),
		NewDropout(8, 0.3, 42),
		NewDense(8, 2),
	)
}

// blobData synthesizes a deterministic two-blob training set.
func blobData(n int) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(7))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, 6)
		label := i % 2
		for j := range row {
			row[j] = rng.NormFloat64()*0.4 + float64(label)
		}
		x[i], y[i] = row, label
	}
	return x, y
}

// saveBytes serializes a network in memory for byte-level comparison.
func saveBytes(t *testing.T, net *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, net); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// pollCancelCtx cancels itself on its n-th Err call, so a test can stop a
// single-goroutine run at a chosen poll.
type pollCancelCtx struct {
	context.Context
	left   int
	cancel context.CancelFunc
}

func cancelOnPoll(parent context.Context, n int) context.Context {
	ctx, cancel := context.WithCancel(parent)
	return &pollCancelCtx{Context: ctx, left: n, cancel: cancel}
}

func (c *pollCancelCtx) Err() error {
	if c.left--; c.left == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestNonFiniteHalts: a sample holding +Inf makes its batch's loss
// non-finite, and the fit halts with ErrNonFinite before that step is
// applied: fewer epochs of history than configured, and every parameter
// still finite (one poisoned step would have made them NaN).
func TestNonFiniteHalts(t *testing.T) {
	x, y := blobData(32)
	x[17][2] = math.Inf(1)
	net := smallNet()
	cfg := TrainConfig{Epochs: 8, BatchSize: 8, Seed: 3}
	hist, err := Fit(net, x, y, cfg)
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("got err %v, want ErrNonFinite", err)
	}
	if !strings.Contains(err.Error(), "at epoch 1 ") {
		t.Errorf("err = %v, want the halt placed in epoch 1, which meets every sample", err)
	}
	if len(hist) >= cfg.Epochs {
		t.Fatalf("halted with %d epochs of history, want fewer than %d", len(hist), cfg.Epochs)
	}
	for i, p := range net.Params() {
		for j, w := range p.W.Data {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				t.Fatalf("param %d[%d] = %v: the poisoned step was applied", i, j, w)
			}
		}
	}
}

// TestFitCancelledKeepsHistory: FitCtx polls its context once before each
// epoch, so a context cancelled at the (k+1)-th poll stops the fit after
// k epochs, with their history and an error wrapping context.Canceled.
func TestFitCancelledKeepsHistory(t *testing.T) {
	x, y := blobData(40)
	const k = 5
	hist, err := FitCtx(cancelOnPoll(context.Background(), k+1), smallNet(), x, y,
		TrainConfig{Epochs: 9, BatchSize: 8, Seed: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: got err %v, want one wrapping context.Canceled", err)
	}
	if len(hist) != k {
		t.Fatalf("cancelled run returned %d epochs of history, want %d", len(hist), k)
	}
	for i, st := range hist {
		if st.Epoch != i+1 {
			t.Fatalf("history[%d] is epoch %d", i, st.Epoch)
		}
	}
}
