// Inference-engine benchmark: the batched/parallel scoring path of
// internal/nn against the serial per-sample loop (`go test -bench
// PredictBatch -benchmem .`); ci.sh runs TestParallelInferenceSmoke and
// TestParallelMatMulSmoke as cheap throughput-regression gates. The
// matmul benchmarks (kernel against kernel, sharded against serial) live
// beside the kernels, in internal/tensor/bench_test.go.
package hsd_test

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/tensor"
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

// TestParallelMatMulSmoke is the kernel-level half of the ci.sh
// throughput gate: at the bench shape the pool-sharded parallel matmul
// must not fall behind the serial kernel (best-of-3, 25% grace). On one
// core the pool degrades to an inline serial call, so this asserts the
// sharding machinery itself costs nothing measurable; on multicore it
// asserts the parallel path actually pays.
func TestParallelMatMulSmoke(t *testing.T) {
	if os.Getenv("HSD_INFER_SMOKE") == "" {
		t.Skip("set HSD_INFER_SMOKE=1 to run the throughput smoke gate")
	}
	const n = 192
	rng := rand.New(rand.NewSource(12))
	ma := tensor.NewMatrix(n, n)
	ma.Randomize(rng, 1)
	mb := tensor.NewMatrix(n, n)
	mb.Randomize(rng, 1)
	dst := tensor.NewMatrix(n, n)
	tensor.ParallelMatMulInto(dst, ma, mb) // warm the pool
	timeIt := func(f func()) time.Duration {
		best := time.Duration(1 << 62)
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			for i := 0; i < 8; i++ {
				f()
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	serial := timeIt(func() { tensor.MatMulInto(dst, ma, mb) })
	parallel := timeIt(func() { tensor.ParallelMatMulInto(dst, ma, mb) })
	if parallel > serial+serial/4 {
		t.Fatalf("parallel matmul regressed below serial: parallel=%v serial=%v", parallel, serial)
	}
	t.Logf("serial=%v parallel=%v (%.2fx)", serial, parallel, float64(serial)/float64(parallel))
}

// TestParallelInferenceSmoke is the ci.sh throughput-regression gate:
// the batched inference path must not fall behind the serial per-sample
// loop. Gated behind HSD_INFER_SMOKE=1 because wall-clock assertions are
// hostile to loaded machines; best-of-3 with a 25% grace margin keeps it
// stable on a single-core container, where the batched path can only win
// through cache blocking and allocation reuse (on >= 4 cores it should
// win by well over 2x at batch 64).
func TestParallelInferenceSmoke(t *testing.T) {
	if os.Getenv("HSD_INFER_SMOKE") == "" {
		t.Skip("set HSD_INFER_SMOKE=1 to run the throughput smoke gate")
	}
	net, dim := benchInferNet(t)
	x := benchInferInputs(64, dim)
	if _, err := nn.PredictBatch(net, x, 0); err != nil { // warm pools, validate
		t.Fatal(err)
	}
	timeIt := func(f func()) time.Duration {
		best := time.Duration(1 << 62)
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			f()
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	serial := timeIt(func() {
		for _, row := range x {
			nn.Score(net, row)
		}
	})
	batched := timeIt(func() { _, _ = nn.PredictBatch(net, x, 0) })
	if batched > serial+serial/4 {
		t.Fatalf("batched inference regressed below serial: batched=%v serial=%v", batched, serial)
	}
	t.Logf("serial=%v batched=%v (%.2fx)", serial, batched, float64(serial)/float64(batched))
}
