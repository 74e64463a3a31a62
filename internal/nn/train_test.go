package nn

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/golitho/hsd/internal/tensor"
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

// TestNonFiniteSlotHaltsStep: a NaN in one sample's conv2 weight-gradient
// slot, at the first conv2 element of the last range of the gradient
// pass that holds one, beside an Inf in a dense1 gradient (a later part,
// in that range or a later one), halts the step at 1, 2 and 3 kernel
// workers. The
// error is ErrNonFinite naming the parameter a serial scan of the summed
// gradients finds first, conv2's weight, and no parameter, Adam moment
// or step count changes.
func TestNonFiniteSlotHaltsStep(t *testing.T) {
	defer tensor.SetDefaultWorkers(0)
	for _, workers := range []int{1, 2, 3} {
		tensor.SetDefaultWorkers(workers)
		c := trainStepCases()[0]
		net, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.cfg()
		rng := rand.New(rand.NewSource(1717))
		net.Init(rng)
		x := tensor.NewMatrix(cfg.BatchSize, inDim(net))
		x.Randomize(rng, 1)
		y := make([]int, x.Rows)
		for i := range y {
			y[i] = rng.Intn(2)
		}
		params := net.Params()
		opt := newAdam(params)
		backward := func() {
			_, grad, _ := cfg.Loss.Loss(net.Forward(x), y)
			for _, p := range params {
				p.G.Zero()
			}
			net.backwardLayers(grad)
		}
		// One finite step first, so that the moments are not zero.
		backward()
		if err := applyGrads(net, opt, params); err != nil {
			t.Fatal(err)
		}
		before := trainedBits(params, opt)

		backward()
		conv2, ok := net.Layers[3].(*Conv2D)
		if !ok || conv2.tr.pending != x.Rows {
			t.Fatalf("%d workers: layer 3 holds no pending slots", workers)
		}
		nc, bounds := net.grads.split(), net.grads.bounds
		off := len(params[0].G.Data) + len(params[1].G.Data)
		end := off + len(params[2].G.Data)
		k := nc - 1
		for bounds[k] >= end {
			k--
		}
		if k == 0 {
			t.Fatalf("%d workers: ranges %v put conv2's weight in the first alone", workers, bounds[:nc+1])
		}
		conv2.tr.gwSlot[(x.Rows-1)*len(conv2.gw.Data)+max(bounds[k], off)-off] = math.NaN()
		params[4].G.Data[len(params[4].G.Data)-1] = math.Inf(1)

		err = applyGrads(net, opt, params)
		want := -1
		for i, p := range params {
			if !allFinite(p.G.Data) {
				want = i
				break
			}
		}
		if want != 2 || !errors.Is(err, ErrNonFinite) || !strings.HasSuffix(err.Error(), fmt.Sprintf("gradient of param %d", want)) {
			t.Fatalf("%d workers: err = %v, serial scan finds param %d; want ErrNonFinite naming param 2", workers, err, want)
		}
		if after := trainedBits(params, opt); !reflect.DeepEqual(after, before) {
			t.Fatalf("%d workers: the poisoned step changed a parameter, a moment or the step count", workers)
		}
	}
}

// trainedBits is the Float64bits of every parameter and Adam moment, and
// the step count.
func trainedBits(params []*Param, opt *adam) []uint64 {
	out := []uint64{uint64(opt.t)}
	for i, p := range params {
		for _, d := range [][]float64{p.W.Data, opt.m[i].Data, opt.v[i].Data} {
			for _, v := range d {
				out = append(out, math.Float64bits(v))
			}
		}
	}
	return out
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
