package svm

import (
	"math"
	"math/rand"
	"testing"
)

func TestLinearSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x [][]float64
	var y []int
	for i := 0; i < 80; i++ {
		if i%2 == 0 {
			x = append(x, []float64{rng.Float64() + 2, rng.Float64() + 2})
			y = append(y, 1)
		} else {
			x = append(x, []float64{-rng.Float64() - 2, -rng.Float64() - 2})
			y = append(y, 0)
		}
	}
	m, err := Train(x, y, Config{Kernel: Linear{}, C: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if got := m.Decision(x[i]) >= 0; got != (y[i] == 1) {
			t.Fatalf("sample %d misclassified (decision %v)", i, m.Decision(x[i]))
		}
	}
	if m.Decision([]float64{5, 5}) < 0 || m.Decision([]float64{-5, -5}) >= 0 {
		t.Fatal("generalization failed on far points")
	}
	if st := m.TrainStats(); st.Passes <= 0 || st.Elapsed <= 0 {
		t.Fatalf("train stats not recorded: %+v", st)
	}
}

func TestRBFXor(t *testing.T) {
	// XOR is not linearly separable; RBF must solve it.
	x := [][]float64{{0, 0}, {1, 1}, {0, 1}, {1, 0}}
	y := []int{0, 0, 1, 1}
	// Replicate with jitter for a non-trivial training set.
	rng := rand.New(rand.NewSource(2))
	var xs [][]float64
	var ys []int
	for rep := 0; rep < 25; rep++ {
		for i := range x {
			xs = append(xs, []float64{
				x[i][0] + rng.NormFloat64()*0.05,
				x[i][1] + rng.NormFloat64()*0.05,
			})
			ys = append(ys, y[i])
		}
	}
	m, err := Train(xs, ys, Config{Kernel: RBF{Gamma: 2}, C: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range xs {
		if (m.Decision(xs[i]) >= 0) == (ys[i] == 1) {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(xs)); frac < 0.95 {
		t.Fatalf("XOR accuracy = %v, want >= 0.95", frac)
	}
}

func TestPosWeightShiftsBoundary(t *testing.T) {
	// Overlapping classes: higher PosWeight must not reduce recall on the
	// positive class.
	rng := rand.New(rand.NewSource(4))
	var x [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		if i%4 == 0 { // minority positive class
			x = append(x, []float64{rng.NormFloat64() + 1.0})
			y = append(y, 1)
		} else {
			x = append(x, []float64{rng.NormFloat64() - 1.0})
			y = append(y, 0)
		}
	}
	recall := func(posW float64) float64 {
		m, err := Train(x, y, Config{Kernel: Linear{}, C: 1, PosWeight: posW, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		tp, pos := 0, 0
		for i := range x {
			if y[i] == 1 {
				pos++
				if m.Decision(x[i]) >= 0 {
					tp++
				}
			}
		}
		return float64(tp) / float64(pos)
	}
	r1, r10 := recall(1), recall(10)
	if r10 < r1 {
		t.Fatalf("PosWeight 10 recall (%v) below PosWeight 1 recall (%v)", r10, r1)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, nil, Config{}); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := Train([][]float64{{1}}, []int{1, 0}, Config{}); err == nil {
		t.Fatal("label length mismatch accepted")
	}
	if _, err := Train([][]float64{{1}, {2, 3}}, []int{0, 1}, Config{}); err == nil {
		t.Fatal("ragged features accepted")
	}
	if _, err := Train([][]float64{{1}, {2}}, []int{1, 1}, Config{}); err == nil {
		t.Fatal("single-class set accepted")
	}
	if _, err := Train([][]float64{{1}, {2}}, []int{1, 2}, Config{}); err == nil {
		t.Fatal("non-binary label accepted")
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var x [][]float64
	var y []int
	for i := 0; i < 60; i++ {
		x = append(x, []float64{rng.NormFloat64(), rng.NormFloat64()})
		if x[i][0]+x[i][1] > 0 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	cfg := Config{Kernel: RBF{Gamma: 1}, C: 2, Seed: 7}
	a, err := Train(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.support) != len(b.support) {
		t.Fatal("support vector count differs across identical runs")
	}
	probe := []float64{0.3, -0.2}
	if math.Abs(a.Decision(probe)-b.Decision(probe)) > 1e-12 {
		t.Fatal("decision differs across identical runs")
	}
}

func TestKernelNames(t *testing.T) {
	if (Linear{}).Name() != "linear" {
		t.Fatal("linear name")
	}
	if (RBF{Gamma: 0.5}).Name() == "" {
		t.Fatal("rbf name empty")
	}
}

func TestRBFKernelProperties(t *testing.T) {
	k := RBF{Gamma: 0.7}
	a := []float64{1, 2, 3}
	if math.Abs(k.Eval(a, a)-1) > 1e-12 {
		t.Fatal("k(a,a) != 1")
	}
	b := []float64{4, 5, 6}
	if k.Eval(a, b) != k.Eval(b, a) {
		t.Fatal("kernel not symmetric")
	}
	if k.Eval(a, b) <= 0 || k.Eval(a, b) >= 1 {
		t.Fatal("rbf out of (0,1) for distinct points")
	}
}

func TestDecisionLinearityOfScores(t *testing.T) {
	// For a linear kernel, Decision is affine: check additivity of the
	// learned decision function on a trained model.
	rng := rand.New(rand.NewSource(10))
	var x [][]float64
	var y []int
	for i := 0; i < 80; i++ {
		x = append(x, []float64{rng.NormFloat64(), rng.NormFloat64()})
		if 2*x[i][0]-x[i][1] > 0 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	m, err := Train(x, y, Config{Kernel: Linear{}, C: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	a := []float64{0.5, -0.25}
	b := []float64{-1, 2}
	mid := []float64{(a[0] + b[0]) / 2, (a[1] + b[1]) / 2}
	got := m.Decision(mid)
	want := (m.Decision(a) + m.Decision(b)) / 2
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("linear decision not affine: %v vs %v", got, want)
	}
}

func TestSupportVectorsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var x [][]float64
	var y []int
	for i := 0; i < 120; i++ {
		x = append(x, []float64{rng.NormFloat64()})
		if x[i][0] > 0 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	m, err := Train(x, y, Config{Kernel: Linear{}, C: 5, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.support) > len(x) {
		t.Fatal("more support vectors than samples")
	}
	if len(m.support) == 0 {
		t.Fatal("no support vectors")
	}
}
