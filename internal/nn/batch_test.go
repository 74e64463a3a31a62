package nn

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/golitho/hsd/internal/tensor"
)

// testNetworks builds one of each supported architecture, initialized.
// The last two are conv -> ReLU -> pool -> dense heads off the zoo's
// geometry: a 5x5 kernel under pad 2 on a non-square input whose output
// width is not a multiple of the kernel's panel, and a pointwise conv
// under a 4x4 pool (the tail runs layer by layer). Every bias is
// non-zero.
func testNetworks(t *testing.T, seed int64) map[string]*Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mlp := BuildMLP(37, 16, 8)
	mlp.Init(rng)

	cnn, err := BuildCNN(CNNConfig{InC: 3, InH: 8, InW: 8, Conv1: 4, Conv2: 6, Hidden: 10, DropoutP: 0.2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cnn.Init(rng)

	plain, err := BuildCNN(CNNConfig{InC: 2, InH: 8, InW: 8, Conv1: 3, Conv2: 4, Hidden: 8})
	if err != nil {
		t.Fatal(err)
	}
	plain.Init(rng)

	nets := map[string]*Network{
		"mlp": mlp, "cnn-dropout": cnn, "cnn": plain,
		"cnn-k5-ragged": NewNetwork(NewConv2D(2, 6, 22, 5, 5, 2), NewReLU(5*6*22), NewMaxPool2D(5, 6, 22, 2), NewDense(5*3*11, 2)),
		"cnn-k1-pool4":  NewNetwork(NewConv2D(3, 8, 8, 4, 1, 0), NewReLU(4*8*8), NewMaxPool2D(4, 8, 8, 4), NewDense(4*2*2, 2)),
	}
	// Fixed order: the draws, and so the tests, are the same every run.
	for _, name := range []string{"cnn-k5-ragged", "cnn-k1-pool4"} {
		nets[name].Init(rng)
	}
	for _, name := range []string{"mlp", "cnn-dropout", "cnn", "cnn-k5-ragged", "cnn-k1-pool4"} {
		for _, l := range nets[name].Layers {
			switch l := l.(type) {
			case *Conv2D:
				for i := range l.B {
					l.B[i] = 0.3 * rng.NormFloat64()
				}
			case *Dense:
				for i := range l.B {
					l.B[i] = 0.3 * rng.NormFloat64()
				}
			}
		}
	}
	return nets
}

func randRows(rng *rand.Rand, n, dim int) [][]float64 {
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, dim)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
	}
	return x
}

func inDim(net *Network) int {
	switch l := net.Layers[0].(type) {
	case *Dense:
		return l.In
	case *Conv2D:
		return l.InC * l.InH * l.InW
	}
	return 0
}

// TestForwardBatchMatchesForward: the arena inference path reproduces
// the per-layer reference (evalForward) exactly for every architecture
// and for batch sizes around the chunking boundaries.
func TestForwardBatchMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for name, net := range testNetworks(t, 21) {
		dim := inDim(net)
		ar := NewArena()
		for _, rows := range []int{1, 2, 5, 31, 32, 33} {
			x := tensor.NewMatrix(rows, dim)
			x.Randomize(rng, 1)
			want := evalForward(net, x)
			got := net.ForwardBatch(x, ar)
			if got.Rows != want.Rows || got.Cols != want.Cols {
				t.Fatalf("%s rows=%d: shape %dx%d, want %dx%d", name, rows, got.Rows, got.Cols, want.Rows, want.Cols)
			}
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%s rows=%d: logit %d = %v, want %v", name, rows, i, got.Data[i], want.Data[i])
				}
			}
			ar.Reset()
		}
	}
}

// TestPredictBatchMatchesSerial: PredictBatch equals the per-sample
// serial Score path within 1e-9 (observed: exactly) across randomized
// batch sizes, worker counts, and GOMAXPROCS settings.
func TestPredictBatchMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(22))
	nets := testNetworks(t, 22)
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		for name, net := range nets {
			dim := inDim(net)
			for _, n := range []int{1, 3, 32, 33, 64, 97} {
				x := randRows(rng, n, dim)
				want := make([]float64, n)
				for i := range x {
					want[i] = Score(net, x[i])
				}
				for _, workers := range []int{1, 2, runtime.NumCPU()} {
					got, err := PredictBatch(net, x, workers)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != n {
						t.Fatalf("%s: got %d scores, want %d", name, len(got), n)
					}
					for i := range want {
						d := got[i] - want[i]
						if d < -1e-9 || d > 1e-9 {
							t.Fatalf("GOMAXPROCS=%d %s n=%d workers=%d: score %d = %v, want %v",
								procs, name, n, workers, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestPredictBatchValidation covers the error paths.
func TestPredictBatchValidation(t *testing.T) {
	net := BuildMLP(4, 3)
	net.Init(rand.New(rand.NewSource(1)))
	if got, err := PredictBatch(net, nil, 0); err != nil || got != nil {
		t.Fatalf("empty input: %v, %v", got, err)
	}
	if _, err := PredictBatch(net, [][]float64{{1, 2, 3, 4}, {1, 2}}, 0); err == nil {
		t.Fatal("ragged input accepted")
	}
	oneLogit := NewNetwork(NewDense(4, 1))
	if _, err := PredictBatch(oneLogit, [][]float64{{1, 2, 3, 4}}, 0); err == nil {
		t.Fatal("1-logit head accepted")
	}
}

// TestPredictBatchConcurrentSharedNet: one shared (never cloned) network
// scored from many goroutines at once; under -race this proves the
// arena inference path is read-only on the network and that pooled
// arenas are never shared between workers.
func TestPredictBatchConcurrentSharedNet(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	net := testNetworks(t, 23)["cnn"]
	dim := inDim(net)
	x := randRows(rng, 70, dim)
	want, err := PredictBatch(net, x, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 12)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := PredictBatch(net, x, 1+g%4)
			if err != nil {
				errs <- err.Error()
				return
			}
			for i := range want {
				if got[i] != want[i] {
					errs <- "concurrent scores diverged"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestArenaReuse: the cursor discipline reuses buffers of sufficient
// capacity and grows undersized slots. A reused buffer comes back as the
// last pass left it: contents are unspecified and callers write every
// cell (TestForwardBatchIgnoresArenaContents holds the layers to that).
func TestArenaReuse(t *testing.T) {
	ar := NewArena()
	a := ar.get(4, 8)
	b := ar.get(2, 2)
	a.Data[0], b.Data[0] = 7, 7
	ar.Reset()
	a2 := ar.get(4, 8)
	if &a2.Data[0] != &a.Data[0] {
		t.Fatal("equal-size buffer was not reused after Reset")
	}
	if a2.Data[0] != 7 {
		t.Fatal("reused buffer was cleared: get must not pay for a memclr nobody reads")
	}
	// Smaller request reuses the same backing array.
	ar.Reset()
	small := ar.get(2, 3)
	if &small.Data[0] != &a.Data[0] || small.Rows != 2 || small.Cols != 3 {
		t.Fatalf("smaller request did not reuse slot: %dx%d", small.Rows, small.Cols)
	}
	// Larger request replaces the slot.
	ar.Reset()
	big := ar.get(10, 10)
	if &big.Data[0] == &a.Data[0] {
		t.Fatal("oversized request reused an undersized buffer")
	}
	if len(big.Data) != 100 {
		t.Fatalf("big buffer len = %d", len(big.Data))
	}
}

// TestForwardBatchIgnoresArenaContents: Arena.get clears nothing, so every
// forwardInfer must write every cell of every buffer it takes. A pass
// over an arena whose buffers were all filled with NaN has to return the
// bits of a pass over a fresh one, for each architecture.
func TestForwardBatchIgnoresArenaContents(t *testing.T) {
	for name, net := range testNetworks(t, 23) {
		rng := rand.New(rand.NewSource(24))
		dim := inDim(net)
		// Normal inputs: about half of every ReLU's cells take the zero
		// branch, the one value a cleared buffer used to supply.
		x := tensor.NewMatrix(3, dim)
		x.Randomize(rng, 1)
		ar := NewArena()
		want := net.ForwardBatch(x, ar).Clone()
		for _, buf := range ar.bufs {
			buf.Data = buf.Data[:cap(buf.Data)]
			for i := range buf.Data {
				buf.Data[i] = math.NaN()
			}
		}
		ar.Reset()
		got := net.ForwardBatch(x, ar)
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s: logit %d = %v over a poisoned arena, %v over a fresh one", name, i, got.Data[i], want.Data[i])
			}
		}
	}
}
