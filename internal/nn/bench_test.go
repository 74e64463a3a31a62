package nn

import (
	"math/rand"
	"testing"

	"github.com/golitho/hsd/internal/tensor"
)

func benchCNN(b *testing.B) *Network {
	b.Helper()
	net, err := BuildCNN(CNNConfig{InC: 16, InH: 16, InW: 16, Conv1: 16, Conv2: 24, Hidden: 48})
	if err != nil {
		b.Fatal(err)
	}
	net.Init(rand.New(rand.NewSource(1)))
	return net
}

// BenchmarkCNNInference measures single-sample scoring latency, the
// per-window cost of a full-chip scan.
func BenchmarkCNNInference(b *testing.B) {
	net := benchCNN(b)
	x := make([]float64, 16*16*16)
	rng := rand.New(rand.NewSource(2))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Score(net, x)
	}
}

// BenchmarkCNNTrainStep measures one minibatch forward+backward+update.
func BenchmarkCNNTrainStep(b *testing.B) {
	net := benchCNN(b)
	rng := rand.New(rand.NewSource(3))
	const bs = 32
	x := tensor.NewMatrix(bs, 16*16*16)
	x.Randomize(rng, 1)
	y := make([]int, bs)
	for i := range y {
		y[i] = rng.Intn(2)
	}
	opt := newAdam(net.Params())
	loss := SoftmaxCE{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logits := net.Forward(x)
		_, grad, _ := loss.Loss(logits, y)
		params := net.Params()
		for _, p := range params {
			p.G.Zero()
		}
		net.Backward(grad)
		opt.step(params)
	}
}

func BenchmarkMLPInference(b *testing.B) {
	net := BuildMLP(482, 64, 32)
	net.Init(rand.New(rand.NewSource(4)))
	x := make([]float64, 482)
	rng := rand.New(rand.NewSource(5))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Score(net, x)
	}
}

// BenchmarkFitZooCNN measures one whole fit of the zoo CNN as every
// bench set-up and learn cycle runs it (hsd.StandardCNN on the small
// suite's first benchmark after augmentation): 16 epochs over 175
// samples, batch 32, Adam, dropout, biased loss. ns/op is what setup_s
// and a learn cycle pay; B/op is what one fit allocates in total.
func BenchmarkFitZooCNN(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := make([][]float64, 175)
	y := make([]int, len(x))
	for i := range x {
		x[i] = make([]float64, 16*16*16)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
		y[i] = rng.Intn(2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := BuildCNN(CNNConfig{InC: 16, InH: 16, InW: 16, Conv1: 16, Conv2: 24, Hidden: 48, DropoutP: 0.1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		cfg := TrainConfig{Epochs: 16, BatchSize: 32, Seed: 1, Loss: SoftmaxCE{BiasEps: 0.25}}
		if _, err := Fit(net, x, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
