package logreg

import (
	"math"
	"math/rand"
	"testing"
)

func TestSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		x = append(x, []float64{rng.NormFloat64()})
		if x[i][0] > 0 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	m, err := Train(x, y, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range x {
		if (m.Prob(x[i]) >= 0.5) == (y[i] == 1) {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(x)); frac < 0.95 {
		t.Fatalf("accuracy = %v", frac)
	}
	if m.Weights[0] <= 0 {
		t.Fatalf("weight = %v, want positive (positive class at x>0)", m.Weights[0])
	}
}

func TestProbRangeAndMonotone(t *testing.T) {
	m := &Model{Weights: []float64{2}, Bias: -1}
	prev := -1.0
	for v := -5.0; v <= 5; v += 0.5 {
		p := m.Prob([]float64{v})
		if p <= 0 || p >= 1 {
			t.Fatalf("prob %v out of (0,1)", p)
		}
		if p < prev {
			t.Fatal("sigmoid not monotone in the margin")
		}
		prev = p
	}
	if math.Abs(m.Prob([]float64{0.5})-0.5) > 1e-12 {
		t.Fatal("prob at decision boundary != 0.5")
	}
}

func TestPosWeightRaisesRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var x [][]float64
	var y []int
	for i := 0; i < 400; i++ {
		v := rng.NormFloat64() - 0.8
		lab := 0
		if i%8 == 0 {
			v += 1.6
			lab = 1
		}
		x = append(x, []float64{v})
		y = append(y, lab)
	}
	recall := func(pw float64) float64 {
		m, err := Train(x, y, Config{PosWeight: pw, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		tp, pos := 0, 0
		for i := range x {
			if y[i] == 1 {
				pos++
				if m.Prob(x[i]) >= 0.5 {
					tp++
				}
			}
		}
		return float64(tp) / float64(pos)
	}
	if recall(8) < recall(1) {
		t.Fatalf("PosWeight lowered recall: %v vs %v", recall(8), recall(1))
	}
}

func TestL2ShrinksWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var x [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		x = append(x, []float64{rng.NormFloat64() * 3})
		if x[i][0] > 0 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	small, err := Train(x, y, Config{L2: 0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Train(x, y, Config{L2: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(big.Weights[0]) >= math.Abs(small.Weights[0]) {
		t.Fatalf("L2 did not shrink weights: %v vs %v", big.Weights[0], small.Weights[0])
	}
}

func TestValidation(t *testing.T) {
	if _, err := Train(nil, nil, Config{}); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := Train([][]float64{{1}}, []int{3}, Config{}); err == nil {
		t.Fatal("bad label accepted")
	}
	if _, err := Train([][]float64{{1}, {2, 3}}, []int{0, 1}, Config{}); err == nil {
		t.Fatal("ragged input accepted")
	}
	if _, err := Train([][]float64{{1}, {2}}, []int{1, 1}, Config{}); err == nil {
		t.Fatal("single class accepted")
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var x [][]float64
	var y []int
	for i := 0; i < 100; i++ {
		x = append(x, []float64{rng.NormFloat64(), rng.NormFloat64()})
		if x[i][0]+x[i][1] > 0 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	a, err := Train(x, y, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(x, y, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Prob([]float64{0.3, -0.1}) != b.Prob([]float64{0.3, -0.1}) {
		t.Fatal("training not deterministic")
	}
}
