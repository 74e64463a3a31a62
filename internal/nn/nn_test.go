package nn

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/golitho/hsd/internal/tensor"
)

// numericalGradCheck compares analytic parameter gradients of a network
// against central finite differences on a fixed batch.
func numericalGradCheck(t *testing.T, net *Network, dim int, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	net.Init(rng)
	const bs = 3
	x := tensor.NewMatrix(bs, dim)
	x.Randomize(rng, 1)
	y := []int{0, 1, 0}
	loss := SoftmaxCE{}

	lossAt := func() float64 {
		logits := net.Forward(x)
		l, _, _ := loss.Loss(logits, y)
		return l
	}

	// Analytic gradients.
	logits := net.Forward(x)
	_, grad, _ := loss.Loss(logits, y)
	for _, p := range net.Params() {
		p.G.Zero()
	}
	net.Backward(grad)

	const h = 1e-5
	checked := 0
	for pi, p := range net.Params() {
		// Sample a few entries per parameter to keep runtime sane.
		step := len(p.W.Data)/7 + 1
		for j := 0; j < len(p.W.Data); j += step {
			orig := p.W.Data[j]
			p.W.Data[j] = orig + h
			lp := lossAt()
			p.W.Data[j] = orig - h
			lm := lossAt()
			p.W.Data[j] = orig
			num := (lp - lm) / (2 * h)
			ana := p.G.Data[j]
			if math.Abs(num-ana) > tol*(1+math.Abs(num)) {
				t.Fatalf("param %d entry %d: analytic %v vs numeric %v", pi, j, ana, num)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("gradient check covered no entries")
	}
}

func TestGradCheckDense(t *testing.T) {
	net := NewNetwork(NewDense(6, 5), NewReLU(5), NewDense(5, 2))
	numericalGradCheck(t, net, 6, 1e-5)
}

func TestGradCheckConv(t *testing.T) {
	conv := NewConv2D(2, 4, 4, 3, 3, 1)
	net := NewNetwork(conv, NewReLU(conv.OutDim()), NewDense(conv.OutDim(), 2))
	numericalGradCheck(t, net, 2*4*4, 1e-5)
}

func TestGradCheckConvPool(t *testing.T) {
	conv := NewConv2D(1, 4, 4, 2, 3, 1)
	pool := NewMaxPool2D(2, 4, 4, 2)
	net := NewNetwork(conv, NewReLU(conv.OutDim()), pool, NewDense(pool.OutDim(), 2))
	numericalGradCheck(t, net, 16, 1e-5)
}

func TestConvOutputShape(t *testing.T) {
	c := NewConv2D(3, 8, 8, 5, 3, 1)
	if c.OutH() != 8 || c.OutW() != 8 || c.OutDim() != 5*64 {
		t.Fatalf("same-pad conv shape wrong: %d %d %d", c.OutH(), c.OutW(), c.OutDim())
	}
	c2 := NewConv2D(1, 8, 6, 4, 3, 0)
	if c2.OutH() != 6 || c2.OutW() != 4 {
		t.Fatalf("unpadded conv shape wrong: %dx%d", c2.OutH(), c2.OutW())
	}
}

func TestConvIdentityKernel(t *testing.T) {
	// A 1x1 kernel with weight 1 must reproduce its input channel.
	c := NewConv2D(1, 3, 3, 1, 1, 0)
	c.W.Data[0] = 1
	x := tensor.NewMatrix(1, 9)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	out := evalForward(NewNetwork(c), x)
	for i := range x.Data {
		if out.Data[i] != x.Data[i] {
			t.Fatalf("identity conv differs at %d", i)
		}
	}
}

func TestMaxPoolForward(t *testing.T) {
	p := NewMaxPool2D(1, 2, 2, 2)
	x, _ := tensor.FromSlice(1, 4, []float64{1, 5, 3, 2})
	out := evalForward(NewNetwork(p), x)
	if out.Cols != 1 || out.Data[0] != 5 {
		t.Fatalf("maxpool = %v", out.Data)
	}
}

func TestMaxPoolBackwardRoutesToArgmax(t *testing.T) {
	p := NewMaxPool2D(1, 2, 2, 2)
	x, _ := tensor.FromSlice(1, 4, []float64{1, 5, 3, 2})
	p.Forward(x)
	g, _ := tensor.FromSlice(1, 1, []float64{7})
	dx := p.Backward(g)
	want := []float64{0, 7, 0, 0}
	for i := range want {
		if dx.Data[i] != want[i] {
			t.Fatalf("pool grad = %v", dx.Data)
		}
	}
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU(3)
	x, _ := tensor.FromSlice(1, 3, []float64{-1, 0, 2})
	out := r.Forward(x)
	if out.Data[0] != 0 || out.Data[2] != 2 {
		t.Fatalf("relu forward = %v", out.Data)
	}
	g, _ := tensor.FromSlice(1, 3, []float64{10, 10, 10})
	dx := r.Backward(g)
	if dx.Data[0] != 0 || dx.Data[2] != 10 {
		t.Fatalf("relu backward = %v", dx.Data)
	}
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	d := NewDropout(4, 0.5, 1)
	x, _ := tensor.FromSlice(1, 4, []float64{1, 2, 3, 4})
	out := evalForward(NewNetwork(d), x)
	for i := range x.Data {
		if out.Data[i] != x.Data[i] {
			t.Fatal("dropout changed inference values")
		}
	}
}

func TestDropoutTrainZeroesSome(t *testing.T) {
	d := NewDropout(1000, 0.5, 2)
	x := tensor.NewMatrix(1, 1000)
	for i := range x.Data {
		x.Data[i] = 1
	}
	out := d.Forward(x)
	zeros := 0
	for _, v := range out.Data {
		if v == 0 {
			zeros++
		} else if math.Abs(v-2) > 1e-12 {
			t.Fatalf("survivor not rescaled: %v", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Fatalf("dropout zeroed %d of 1000 at p=0.5", zeros)
	}
}

func TestSoftmaxCELoss(t *testing.T) {
	logits, _ := tensor.FromSlice(2, 2, []float64{10, -10, -10, 10})
	loss, grad, correct := SoftmaxCE{}.Loss(logits, []int{0, 1})
	if loss > 1e-6 {
		t.Fatalf("confident correct loss = %v", loss)
	}
	if correct != 2 {
		t.Fatalf("correct = %d", correct)
	}
	for _, g := range grad.Data {
		if math.Abs(g) > 1e-6 {
			t.Fatalf("grad should be ~0, got %v", g)
		}
	}
}

func TestSoftmaxCEBiasedTargets(t *testing.T) {
	// With bias eps, a confident non-hotspot prediction still carries
	// gradient pushing probability toward eps on class 1.
	logits, _ := tensor.FromSlice(1, 2, []float64{10, -10})
	_, g0, _ := SoftmaxCE{}.Loss(logits, []int{0})
	_, gb, _ := SoftmaxCE{BiasEps: 0.3}.Loss(logits.Clone(), []int{0})
	if math.Abs(g0.Data[1]) > 1e-6 {
		t.Fatal("unbiased gradient should vanish")
	}
	if gb.Data[1] >= 0 {
		t.Fatalf("biased loss should push class-1 probability up, grad %v", gb.Data[1])
	}
}

func TestFitXor(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var x [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		a, b := rng.Intn(2), rng.Intn(2)
		x = append(x, []float64{float64(a) + rng.NormFloat64()*0.05, float64(b) + rng.NormFloat64()*0.05})
		y = append(y, a^b)
	}
	net := BuildMLP(2, 16)
	hist, err := Fit(net, x, y, TrainConfig{Epochs: 60, BatchSize: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	final := hist[len(hist)-1]
	if final.Acc < 0.97 {
		t.Fatalf("XOR accuracy = %v", final.Acc)
	}
	if final.Loss > hist[0].Loss {
		t.Fatalf("loss did not decrease: %v -> %v", hist[0].Loss, final.Loss)
	}
}

func TestFitCNNBlobs(t *testing.T) {
	// Class 1: bright top-left quadrant; class 0: bright bottom-right.
	rng := rand.New(rand.NewSource(6))
	const c, h, w = 1, 8, 8
	var x [][]float64
	var y []int
	for i := 0; i < 160; i++ {
		img := make([]float64, c*h*w)
		label := rng.Intn(2)
		for yy := 0; yy < 4; yy++ {
			for xx := 0; xx < 4; xx++ {
				if label == 1 {
					img[yy*w+xx] = 1 + rng.NormFloat64()*0.1
				} else {
					img[(yy+4)*w+xx+4] = 1 + rng.NormFloat64()*0.1
				}
			}
		}
		x = append(x, img)
		y = append(y, label)
	}
	net, err := BuildCNN(CNNConfig{InC: c, InH: h, InW: w, Conv1: 4, Conv2: 8, Hidden: 16})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := Fit(net, x, y, TrainConfig{Epochs: 8, BatchSize: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if acc := hist[len(hist)-1].Acc; acc < 0.95 {
		t.Fatalf("CNN blob accuracy = %v", acc)
	}
	scores, err := PredictBatch(net, x, 0)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, s := range scores {
		if (s > 0.5) == (y[i] == 1) {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(x)); frac < 0.95 {
		t.Fatalf("PredictBatch accuracy = %v", frac)
	}
}

func TestFitValidation(t *testing.T) {
	net := BuildMLP(2, 4)
	if _, err := Fit(net, nil, nil, TrainConfig{}); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := Fit(net, [][]float64{{1, 2}}, []int{3}, TrainConfig{}); err == nil {
		t.Fatal("bad label accepted")
	}
	if _, err := Fit(net, [][]float64{{1, 2}, {1}}, []int{0, 1}, TrainConfig{}); err == nil {
		t.Fatal("ragged input accepted")
	}
	bad := NewNetwork(NewDense(2, 3))
	if _, err := Fit(bad, [][]float64{{1, 2}}, []int{0}, TrainConfig{}); err == nil {
		t.Fatal("non-2-logit network accepted")
	}
}

func TestBuildCNNValidation(t *testing.T) {
	if _, err := BuildCNN(CNNConfig{InC: 1, InH: 6, InW: 8, Conv1: 2, Conv2: 2, Hidden: 4}); err == nil {
		t.Fatal("non-divisible height accepted")
	}
	if _, err := BuildCNN(CNNConfig{InC: 0, InH: 8, InW: 8, Conv1: 2, Conv2: 2, Hidden: 4}); err == nil {
		t.Fatal("zero channels accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	net, err := BuildCNN(CNNConfig{InC: 2, InH: 4, InW: 4, Conv1: 3, Conv2: 4, Hidden: 8, DropoutP: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	net.Init(rand.New(rand.NewSource(7)))
	var buf bytes.Buffer
	if err := Save(&buf, net); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2*4*4)
	rng := rand.New(rand.NewSource(8))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	if math.Abs(Score(net, x)-Score(got, x)) > 1e-12 {
		t.Fatal("loaded network scores differently")
	}
	want, have := net.Params(), got.Params()
	if len(have) != len(want) {
		t.Fatalf("%d parameters after the round trip, want %d", len(have), len(want))
	}
	for i := range want {
		if !slices.Equal(have[i].W.Data, want[i].W.Data) {
			t.Fatalf("parameter %d differs after the round trip", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	net := BuildMLP(3, 4)
	net.Init(rand.New(rand.NewSource(9)))
	clone := net.Clone()
	x := []float64{0.5, -0.3, 0.8}
	before := Score(clone, x)
	// Mutate the original's weights.
	net.Params()[0].W.Data[0] += 100
	if Score(clone, x) != before {
		t.Fatal("clone shares weights with original")
	}
}

func TestAdamConverges(t *testing.T) {
	w := tensor.NewMatrix(1, 1)
	g := tensor.NewMatrix(1, 1)
	p := []*Param{{W: w, G: g}}
	opt := newAdam(p)
	// At the fixed rate of 1e-3 a step moves w by about 1e-3, so the
	// walk from 0 to 3 takes thousands of steps.
	for i := 0; i < 10000; i++ {
		g.Data[0] = 2 * (w.Data[0] - 3)
		opt.step(p)
	}
	if math.Abs(w.Data[0]-3) > 1e-2 {
		t.Fatalf("adam converged to %v", w.Data[0])
	}
}
