package nn

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"github.com/golitho/hsd/internal/tensor"
	"github.com/golitho/hsd/internal/trace"
)

// updateTrainStep rewrites testdata/trainstep_golden.json from the
// running code. The committed file was written at the commit before the
// sample-parallel training step landed; regenerating it on a later
// commit defeats its purpose, which is to pin trained bytes across that
// boundary.
var updateTrainStep = flag.Bool("update-trainstep-golden", false, "rewrite the training-step golden (see comment)")

const trainStepGoldenPath = "testdata/trainstep_golden.json"

// trainStepDigest is what one golden fit leaves behind: a SHA-256 of
// each parameter's Float64bits, one of the saved model (which also
// covers BatchNorm running statistics and the dropout stream position),
// and the loss bits of every epoch.
type trainStepDigest struct {
	Params []string `json:"params"`
	Model  string   `json:"model"`
	Loss   []string `json:"loss"`
}

type trainStepCase struct {
	name  string
	build func() (*Network, error)
	cfg   func() TrainConfig
}

// trainStepCases are the zoo CNN (16x16x16 -> conv16 -> conv24 ->
// dense48, dropout, Adam, biased loss), the same shape with BatchNorm
// under SGD with momentum, weight decay and a learning-rate step, and
// the zoo MLP widths.
func trainStepCases() []trainStepCase {
	cnn := func(bn bool) func() (*Network, error) {
		return func() (*Network, error) {
			return BuildCNN(CNNConfig{
				InC: 16, InH: 16, InW: 16,
				Conv1: 16, Conv2: 24, Hidden: 48, DropoutP: 0.1, BatchNorm: bn, Seed: 5,
			})
		}
	}
	return []trainStepCase{
		{"zoo-cnn", cnn(false), func() TrainConfig {
			return TrainConfig{Epochs: 2, BatchSize: 32, Seed: 11,
				Optimizer: NewAdam(1e-3), Loss: SoftmaxCE{BiasEps: 0.25}}
		}},
		{"zoo-cnn-bn", cnn(true), func() TrainConfig {
			return TrainConfig{Epochs: 2, BatchSize: 32, Seed: 12,
				Optimizer:   &SGD{LR: 0.02, Momentum: 0.9, WeightDecay: 1e-4},
				LRStepEvery: 1, LRStepFactor: 0.5}
		}},
		{"zoo-mlp", func() (*Network, error) { return BuildMLP(482, 64, 32), nil }, func() TrainConfig {
			return TrainConfig{Epochs: 2, BatchSize: 32, Seed: 13, Optimizer: NewAdam(1e-3)}
		}},
	}
}

// trainStepSamples is two full batches of 32 and a ragged one of 8.
const trainStepSamples = 72

// fitDigest fits one case on its fixed-seed inputs and digests the
// result. It reports failures as an error so that it can run off the
// test's goroutine.
func fitDigest(c trainStepCase) (trainStepDigest, error) {
	var d trainStepDigest
	net, err := c.build()
	if err != nil {
		return d, err
	}
	rng := rand.New(rand.NewSource(1515))
	x := randRows(rng, trainStepSamples, inDim(net))
	y := make([]int, len(x))
	for i := range y {
		y[i] = rng.Intn(2)
	}
	hist, err := Fit(net, x, y, c.cfg())
	if err != nil {
		return d, err
	}
	for _, p := range net.Params() {
		h := sha256.New()
		var b [8]byte
		for _, v := range p.W.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		d.Params = append(d.Params, hex.EncodeToString(h.Sum(nil)))
	}
	var saved bytes.Buffer
	if err := Save(&saved, net); err != nil {
		return d, err
	}
	model := sha256.Sum256(saved.Bytes())
	d.Model = hex.EncodeToString(model[:])
	for _, st := range hist {
		d.Loss = append(d.Loss, fmt.Sprintf("%016x", math.Float64bits(st.Loss)))
	}
	return d, nil
}

func readTrainStepGolden(t *testing.T) map[string]trainStepDigest {
	t.Helper()
	b, err := os.ReadFile(trainStepGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]trainStepDigest
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestTrainStepGolden fits every case under 1, 2 and 8 kernel workers
// and demands, each time, the exact trained bytes the parent commit
// produced with its serial loop. The kill/resume suites compare this
// commit with itself; this is the cross-commit anchor, and the worker
// sweep is why trained bytes do not depend on GOMAXPROCS.
func TestTrainStepGolden(t *testing.T) {
	cases := trainStepCases()
	if *updateTrainStep {
		got := map[string]trainStepDigest{}
		for _, c := range cases {
			d, err := fitDigest(c)
			if err != nil {
				t.Fatal(err)
			}
			got[c.name] = d
		}
		b, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trainStepGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", trainStepGoldenPath)
		return
	}
	want := readTrainStepGolden(t)
	defer tensor.SetDefaultWorkers(0)
	for _, workers := range []int{1, 2, 8} {
		tensor.SetDefaultWorkers(workers)
		for _, c := range cases {
			if got, err := fitDigest(c); err != nil {
				t.Fatal(err)
			} else if !reflect.DeepEqual(got, want[c.name]) {
				t.Errorf("%s at %d workers: trained bytes differ from the golden\n got %+v\nwant %+v",
					c.name, workers, got, want[c.name])
			}
		}
	}
}

// TestTrainStepRefitStartsFresh: a config, and with it one optimizer, is
// fitted twice (a NeuralDetector refitted each learn cycle holds one
// *Adam). The second fit must not inherit the first one's step count,
// moments or decayed learning rate: it gives the bytes a fit on a fresh
// config gives.
func TestTrainStepRefitStartsFresh(t *testing.T) {
	x, y := ckptData(40)
	opts := map[string]func() Optimizer{
		"adam": func() Optimizer { return NewAdam(5e-3) },
		"sgd":  func() Optimizer { return &SGD{LR: 0.05, Momentum: 0.9} },
	}
	for name, newOpt := range opts {
		for _, stepEvery := range []int{0, 2} {
			cfg := func() TrainConfig {
				return TrainConfig{Epochs: 5, BatchSize: 8, Seed: 3, Optimizer: newOpt(),
					LRStepEvery: stepEvery, LRStepFactor: 0.5}
			}
			fresh := ckptNet()
			if _, err := Fit(fresh, x, y, cfg()); err != nil {
				t.Fatal(err)
			}
			shared := cfg()
			for round := 1; round <= 2; round++ {
				net := ckptNet()
				if _, err := Fit(net, x, y, shared); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(saveBytes(t, net), saveBytes(t, fresh)) {
					t.Errorf("%s LRStepEvery=%d: fit %d on a shared config differs from a fit on a fresh one",
						name, stepEvery, round)
				}
			}
		}
	}
}

// TestNetworkBackwardSkipsOnlyInputGrad: Network.Backward asks its first
// layer for parameter gradients only; they must be the ones a direct
// Backward call, which still returns dL/dInput, accumulates.
func TestNetworkBackwardSkipsOnlyInputGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	firsts := map[string]func() Layer{
		"conv":  func() Layer { return NewConv2D(2, 6, 6, 3, 3, 1, 1) },
		"dense": func() Layer { return NewDense(72, 108) },
	}
	for name, newFirst := range firsts {
		a, b := NewNetwork(newFirst(), NewDense(108, 2)), NewNetwork(newFirst(), NewDense(108, 2))
		a.Init(rand.New(rand.NewSource(72)))
		b.Init(rand.New(rand.NewSource(72)))
		x := tensor.NewMatrix(5, 72)
		x.Randomize(rng, 1)
		y := []int{0, 1, 1, 0, 1}
		_, ga, _ := SoftmaxCE{}.Loss(a.Forward(x, true), y)
		a.Backward(ga)
		_, gb, _ := SoftmaxCE{}.Loss(b.Forward(x, true), y)
		dx := b.Layers[0].Backward(b.Layers[1].Backward(gb))
		if dx == nil || dx.Rows != 5 || dx.Cols != 72 {
			t.Fatalf("%s: direct Backward returned no input gradient", name)
		}
		nonzero := false
		for _, v := range dx.Data {
			nonzero = nonzero || v != 0
		}
		if !nonzero {
			t.Fatalf("%s: direct Backward returned an all-zero input gradient", name)
		}
		pa, pb := a.Params(), b.Params()
		for i := range pa {
			for j := range pa[i].G.Data {
				if math.Float64bits(pa[i].G.Data[j]) != math.Float64bits(pb[i].G.Data[j]) {
					t.Fatalf("%s: param %d gradient %d = %v via Network.Backward, %v via direct Backward",
						name, i, j, pa[i].G.Data[j], pb[i].G.Data[j])
				}
			}
		}
	}
}

// TestConvForwardMatchesSparseGather: the eval Forward gathers with
// im2col and the training Forward multiplies the zero-bordered sample in
// place (or gathers, off stride 1); on every odd geometry both must equal
// the independent gather kept with the benchmarks (zeroed matrix, padded
// taps skipped).
func TestConvForwardMatchesSparseGather(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, conv := range convGeometries() {
		NewNetwork(conv).Init(rng)
		x := tensor.NewMatrix(3, conv.InC*conv.InH*conv.InW)
		x.Randomize(rng, 1)
		want := conv.forwardInferIm2col(x, NewArena())
		for _, train := range []bool{false, true} {
			got := conv.Forward(x, train)
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%s train=%v: element %d = %v, want %v", conv.Name(), train, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestFittedNetworkHoldsNoScratch: the training scratch of the zoo CNN
// is 4 MB at batch 32 and its parameters are 0.2 MB; once Fit has
// returned, the network must pin the second and not the first.
func TestFittedNetworkHoldsNoScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations make heap sizes meaningless")
	}
	c := trainStepCases()[0]
	rng := rand.New(rand.NewSource(74))
	x := randRows(rng, 32, 16*16*16)
	y := make([]int, len(x))
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	net, err := c.build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.cfg()
	cfg.Epochs = 1
	if _, err := Fit(net, x, y, cfg); err != nil {
		t.Fatal(err)
	}
	retained := int64(heap()) - int64(before)
	runtime.KeepAlive(net)
	runtime.KeepAlive(cfg)
	// Weights, gradient accumulators and Adam's two moments are four
	// copies of 26 k parameters: under 1 MB.
	if retained > 2<<20 {
		t.Fatalf("a fitted network and its optimizer retain %d bytes", retained)
	}
}

// TestTrainStepConcurrentFits: fits on different networks run at once,
// all sharding over the one process-wide kernel pool and helping with
// each other's shards; each must still produce its golden bytes.
func TestTrainStepConcurrentFits(t *testing.T) {
	want := readTrainStepGolden(t)
	cases := trainStepCases()
	got := make([]trainStepDigest, len(cases))
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = fitDigest(c)
		}()
	}
	wg.Wait()
	for i, c := range cases {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[c.name]) {
			t.Errorf("%s: a concurrent fit changed the trained bytes", c.name)
		}
	}
}

// TestFitEmitsEpochSpans: under a recording tracer every epoch is one
// train.epoch span carrying the epoch's statistics.
func TestFitEmitsEpochSpans(t *testing.T) {
	x, y := ckptData(20)
	tr := trace.New(trace.Config{Shards: 1})
	ctx, root := trace.Start(trace.WithTracer(context.Background(), tr), "fit")
	hist, err := FitCtx(ctx, ckptNet(), x, y, TrainConfig{Epochs: 3, BatchSize: 8, Seed: 3})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	traces := tr.Traces(0)
	if len(traces) != 1 {
		t.Fatalf("%d traces, want 1", len(traces))
	}
	epoch := 0
	for _, sp := range traces[0].Spans {
		if sp.Name != "train.epoch" {
			continue
		}
		attrs := map[string]string{}
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		st := hist[epoch]
		epoch++
		want := map[string]string{
			"epoch": strconv.Itoa(st.Epoch), "batches": "3", "samples": "20",
			"loss": strconv.FormatFloat(st.Loss, 'g', 6, 64),
			"acc":  strconv.FormatFloat(st.Acc, 'g', 6, 64),
		}
		if !reflect.DeepEqual(attrs, want) {
			t.Errorf("train.epoch attrs = %v, want %v", attrs, want)
		}
	}
	if epoch != 3 {
		t.Fatalf("%d train.epoch spans, want 3", epoch)
	}
}

// TestTrainStepAllocations pins what one steady-state training step
// allocates, case by case: the first step sizes every layer's scratch
// (bordered copies, gradient slots, the A·Bᵀ transposes), and from then
// on a step allocates only closures and pool bookkeeping. The BatchNorm
// CNN and the MLP are at the counts of the commit before the assembly
// kernel; the zoo CNN, whose ReLU and pool passes are folded into its
// convolutions, is at 18 where it was 50. The pool is narrowed to the
// caller so that the count does not depend on which shards a worker
// happened to take.
func TestTrainStepAllocations(t *testing.T) {
	tensor.SetDefaultWorkers(1)
	defer tensor.SetDefaultWorkers(0)
	want := map[string]float64{"zoo-cnn": 18, "zoo-cnn-bn": 50, "zoo-mlp": 8}
	for _, c := range trainStepCases() {
		net, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.cfg()
		cfg.normalize()
		rng := rand.New(rand.NewSource(1616))
		net.Init(rng)
		x := tensor.NewMatrix(cfg.BatchSize, inDim(net))
		x.Randomize(rng, 1)
		y := make([]int, x.Rows)
		for i := range y {
			y[i] = rng.Intn(2)
		}
		params := net.Params()
		step := func() {
			_, grad, _ := cfg.Loss.Loss(net.Forward(x, true), y)
			for _, p := range params {
				p.G.Zero()
			}
			net.Backward(grad)
			cfg.Optimizer.Step(params)
		}
		step() // sizes the scratch
		if got := testing.AllocsPerRun(5, step); got > want[c.name] {
			t.Errorf("%s: a steady-state step allocates %v objects, want <= %v", c.name, got, want[c.name])
		}
	}
}

// bitsEqual fails unless got and want agree element by element by their
// bits; where want is NaN, got may be any NaN.
func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: element %d = %v (bits %x), want %v (bits %x)", what, i,
				g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// TestConvTrainTailBits holds the training pass that takes conv, ReLU
// and 2x2 pool in one step to the three layers run one after another, by
// Float64bits, forward and backward, on the windows where the rules
// could be suspected of not composing: NaN alone and among others, both
// zeros, both infinities, denormals, all-negative windows and ties,
// under six biases, with signed zeros among the incoming gradients. The
// pass over the sums is called directly first (a sum is never -0, so
// only there can -0 meet the ReLU), then the whole step on a pointwise
// convolution with unit weight, whose sums are its input, directly (for
// dL/dInput) and through Network.Forward/Backward.
func TestConvTrainTailBits(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const h, w, rows = 8, 12, 3
	const pooled = h * w / 4
	conv, ref := NewConv2D(1, h, w, 1, 1, 1, 0), NewConv2D(1, h, w, 1, 1, 1, 0)
	relu, pool := NewReLU(h*w), NewMaxPool2D(1, h, w, 2)
	conv.W.Data[0], ref.W.Data[0] = 1, 1
	net := NewNetwork(conv, NewReLU(h*w), NewMaxPool2D(1, h, w, 2))
	if net.convReLUPoolAt(0) != conv {
		t.Fatal("conv -> relu -> pool(2) over the conv's output is not taken in one step")
	}
	for _, bias := range []float64{0, math.Copysign(0, -1), 0.5, -0.5, math.Inf(-1), math.NaN()} {
		conv.B[0], ref.B[0] = bias, bias
		x := tailInputs(rng, rows, h, w)
		grad := tensor.NewMatrix(rows, pooled)
		grad.Randomize(rng, 1)
		for i := 0; i < len(grad.Data); i += 5 {
			grad.Data[i] = math.Copysign(0, float64(i%2)-0.5)
		}

		// The pass over the sums, x standing for them.
		biased := x.Clone()
		for i := 0; i < rows; i++ {
			conv.addBias(biased.Row(i))
		}
		wantOut := pool.Forward(relu.Forward(biased, true), true)
		wantDY := relu.Backward(pool.Backward(grad))
		for i := 0; i < rows; i++ {
			out, win, dy := make([]float64, pooled), make([]int32, pooled), make([]float64, h*w)
			conv.biasReLUPoolTrain(x.Row(i), out, win)
			for o, at := range win {
				if at >= 0 {
					dy[at] += grad.Row(i)[o]
				}
			}
			bitsEqual(t, fmt.Sprintf("bias %v sample %d: pass over the sums", bias, i), out, wantOut.Row(i))
			bitsEqual(t, fmt.Sprintf("bias %v sample %d: gradient of the sums", bias, i), dy, wantDY.Row(i))
		}

		// The whole step against the three layers.
		for _, p := range append(ref.Params(), conv.Params()...) {
			p.G.Zero()
		}
		wantOut = pool.Forward(relu.Forward(ref.Forward(x, true), true), true)
		wantDX := ref.Backward(relu.Backward(pool.Backward(grad)))
		bitsEqual(t, fmt.Sprintf("bias %v: output", bias), conv.forwardTrainReLUPool(x).Data, wantOut.Data)
		bitsEqual(t, fmt.Sprintf("bias %v: dL/dInput", bias), conv.backwardReLUPool(grad, true).Data, wantDX.Data)
		bitsEqual(t, fmt.Sprintf("bias %v: dL/dW", bias), conv.gw.Data, ref.gw.Data)
		bitsEqual(t, fmt.Sprintf("bias %v: dL/db", bias), conv.gb, ref.gb)

		// And as Network.Forward and Backward reach it.
		net.ZeroGrad()
		bitsEqual(t, fmt.Sprintf("bias %v: Network.Forward", bias), net.Forward(x, true).Data, wantOut.Data)
		if r := net.Layers[1].(*ReLU); r.tr != nil {
			t.Fatal("Network.Forward ran the ReLU on its own")
		}
		net.Backward(grad)
		bitsEqual(t, fmt.Sprintf("bias %v: dL/dW through Network.Backward", bias), conv.gw.Data, ref.gw.Data)
		bitsEqual(t, fmt.Sprintf("bias %v: dL/db through Network.Backward", bias), conv.gb, ref.gb)
	}
}

// columnsStep is one training step of a Conv2D in the gathered
// formulation the column-free pass replaced, written out serially: the
// sample's im2col matrix (the benchmarks' independent gather), W · cols
// plus bias forward; backward, dL/db as each channel's sum over its
// positions, dL/dW as grad · colsᵀ (tensor.MatMulTransBInto) and
// dL/dInput from its definition, each cell taking one Σ_oc per tap in
// ascending (ky, kx); everything that sums over samples is summed in
// ascending sample order.
func columnsStep(c *Conv2D, x, grad *tensor.Matrix) (out, gw *tensor.Matrix, gb []float64, dx *tensor.Matrix) {
	oh, ow := c.OutH(), c.OutW()
	klen, positions := c.W.Cols, oh*ow
	out = c.forwardInferIm2col(x, NewArena())
	gw, gb = tensor.NewMatrix(c.OutC, klen), make([]float64, c.OutC)
	dx = tensor.NewMatrix(x.Rows, x.Cols)
	cols, slot := tensor.NewMatrix(klen, positions), tensor.NewMatrix(c.OutC, klen)
	for i := 0; i < x.Rows; i++ {
		gm := tensor.Matrix{Rows: c.OutC, Cols: positions, Data: grad.Row(i)}
		for oc := range gb {
			var sum float64
			for _, v := range gm.Row(oc) {
				sum += v
			}
			gb[oc] += sum
		}
		cols.Zero()
		c.im2colIntoBench(x.Row(i), cols)
		tensor.MatMulTransBInto(slot, &gm, cols, nil)
		for j, v := range slot.Data {
			gw.Data[j] += v
		}
		for ch := 0; ch < c.InC; ch++ {
			for ky := 0; ky < c.K; ky++ {
				for kx := 0; kx < c.K; kx++ {
					tap := (ch*c.K+ky)*c.K + kx
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							iy, ix := oy*c.Stride+ky-c.Pad, ox*c.Stride+kx-c.Pad
							if iy < 0 || iy >= c.InH || ix < 0 || ix >= c.InW {
								continue
							}
							var sum float64
							for oc := 0; oc < c.OutC; oc++ {
								sum += c.W.At(oc, tap) * gm.At(oc, oy*ow+ox)
							}
							dx.Row(i)[(ch*c.InH+iy)*c.InW+ix] += sum
						}
					}
				}
			}
		}
	}
	return out, gw, gb, dx
}

// TestConvTrainMatchesColumns: outputs, dL/dW, dL/db and dL/dInput of the
// training pass, which at stride 1 multiplies the zero-bordered sample
// where it lies and elsewhere gathers each sample's columns twice, equal
// the gathered formulation's by Float64bits: 1 to 16 input channels,
// non-square inputs, kernels 1 to 5, pad 0 to 2, stride 2, and output
// channel counts off the kernel's 8-column panel, whose ragged edge the
// portable loop takes.
func TestConvTrainMatchesColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, conv := range convGeometries() {
		NewNetwork(conv).Init(rng)
		for i := range conv.B {
			conv.B[i] = rng.NormFloat64()
		}
		for _, rows := range []int{1, 5} {
			x := tensor.NewMatrix(rows, conv.InC*conv.InH*conv.InW)
			x.Randomize(rng, 1)
			grad := tensor.NewMatrix(rows, conv.OutDim())
			grad.Randomize(rng, 1)
			wantOut, wantGW, wantGB, wantDX := columnsStep(conv, x, grad)
			what := fmt.Sprintf("%s stride %d pad %d rows %d: ", conv.Name(), conv.Stride, conv.Pad, rows)
			for _, p := range conv.Params() {
				p.G.Zero()
			}
			bitsEqual(t, what+"output", conv.Forward(x, true).Data, wantOut.Data)
			bitsEqual(t, what+"dL/dInput", conv.Backward(grad).Data, wantDX.Data)
			bitsEqual(t, what+"dL/dW", conv.gw.Data, wantGW.Data)
			bitsEqual(t, what+"dL/db", conv.gb, wantGB)
		}
	}
}

// heldBytes is the capacity, in bytes, of every slice reachable from v,
// a layer's training scratch. Fields named x are skipped: they borrow the
// previous layer's output, which that layer's scratch already counts.
func heldBytes(v reflect.Value) int {
	total := 0
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			total += heldBytes(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).Name != "x" {
				total += heldBytes(v.Field(i))
			}
		}
	case reflect.Slice:
		total += v.Cap() * int(v.Type().Elem().Size())
		for i := 0; i < v.Len(); i++ {
			total += heldBytes(v.Index(i))
		}
	}
	return total
}

// TestTrainScratchBytes pins what the zoo CNN's layers hold between the
// steps of a batch-32 fit on two kernel workers. With a column matrix
// cached per sample it was 20 976 736 bytes, 11 796 480 of them the two
// caches; the bound is that total less the caches, so neither they nor
// anything their size can come back unnoticed. (It is 4.8 MB: the
// zero-bordered copies, 1.9 MB, stand where the caches did, and the ReLU
// and pool behind each conv hold nothing.)
func TestTrainScratchBytes(t *testing.T) {
	const withColumnCache, columnCache = 20976736, 32 * (144*256 + 144*64) * 8
	tensor.SetDefaultWorkers(2)
	defer tensor.SetDefaultWorkers(0)
	net, err := trainStepCases()[0].build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	net.Init(rng)
	x := tensor.NewMatrix(32, inDim(net))
	x.Randomize(rng, 1)
	_, grad, _ := SoftmaxCE{}.Loss(net.Forward(x, true), make([]int, x.Rows))
	net.Backward(grad)
	total := 0
	for _, l := range net.Layers {
		if tr := reflect.ValueOf(l).Elem().FieldByName("tr"); tr.IsValid() {
			total += heldBytes(tr)
		}
	}
	if total == 0 || total > withColumnCache-columnCache {
		t.Fatalf("the zoo CNN holds %d bytes of training scratch after a batch-32 step, want 0 < bytes <= %d",
			total, withColumnCache-columnCache)
	}
	t.Logf("training scratch after a batch-32 step: %d bytes", total)
}
