// Inference-engine benchmark: the batched/parallel scoring path of
// internal/nn against the serial per-sample loop (`go test -bench
// PredictBatch -benchmem .`). Nothing here asserts a wall-clock ratio:
// the box spreads more run to run than any margin a test could allow, so
// the facts are numbers to read, here and in the matmul benchmarks beside
// the kernels (internal/tensor/bench_test.go: kernel against kernel,
// sharded against serial), and timing is judged by `go run ./bench`.
package hsd_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/golitho/hsd/internal/nn"
)

// benchInferNet builds the initialized (untrained) hotspot CNN over the
// 16x16x16 DCT feature tensor; weights are random but inference cost is
// identical to a trained model's.
func benchInferNet(tb testing.TB) (*nn.Network, int) {
	tb.Helper()
	net, err := nn.BuildCNN(nn.CNNConfig{
		InC: 16, InH: 16, InW: 16, Conv1: 24, Conv2: 32, Hidden: 64,
	})
	if err != nil {
		tb.Fatal(err)
	}
	net.Init(rand.New(rand.NewSource(7)))
	return net, 16 * 16 * 16
}

func benchInferInputs(n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(8))
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, dim)
		for j := range x[i] {
			x[i][j] = rng.Float64()
		}
	}
	return x
}

// BenchmarkPredictBatch compares the serial per-sample Score loop with
// the batched inference engine at one worker (cache blocking + arena
// reuse only) and at NumCPU workers (plus chunk-level parallelism).
func BenchmarkPredictBatch(b *testing.B) {
	net, dim := benchInferNet(b)
	x := benchInferInputs(64, dim)
	b.Run("serial-score", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, row := range x {
				nn.Score(net, row)
			}
		}
	})
	b.Run("batch-w1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := nn.PredictBatch(net, x, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	if procs := runtime.NumCPU(); procs > 1 {
		b.Run(fmt.Sprintf("batch-w%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := nn.PredictBatch(net, x, procs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
