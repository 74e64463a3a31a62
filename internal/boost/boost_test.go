package boost

import (
	"math"
	"math/rand"
	"testing"
)

func TestStumpEval(t *testing.T) {
	s := Stump{Feature: 1, Threshold: 0.5, Polarity: 1}
	if s.Eval([]float64{0, 0.6}) != 1 {
		t.Fatal("above threshold should vote +1")
	}
	if s.Eval([]float64{0, 0.4}) != -1 {
		t.Fatal("below threshold should vote -1")
	}
	s.Polarity = -1
	if s.Eval([]float64{0, 0.6}) != -1 {
		t.Fatal("negative polarity should flip")
	}
}

func TestTrainAxisAligned(t *testing.T) {
	// Single-feature separable data: one stump suffices.
	x := [][]float64{{1}, {2}, {3}, {10}, {11}, {12}}
	y := []int{0, 0, 0, 1, 1, 1}
	m, err := Train(x, y, Config{Rounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if (m.Score(x[i]) >= 0) != (y[i] == 1) {
			t.Fatalf("sample %d misclassified", i)
		}
	}
	if m.Rounds() > 2 {
		t.Fatalf("separable data used %d rounds", m.Rounds())
	}
	if len(m.RoundTimes) != m.Rounds() {
		t.Fatalf("RoundTimes has %d entries for %d rounds", len(m.RoundTimes), m.Rounds())
	}
	if m.TrainTime <= 0 {
		t.Fatalf("TrainTime not recorded: %v", m.TrainTime)
	}
}

func TestTrainInvertedFeature(t *testing.T) {
	// Negative polarity required: small values are positive.
	x := [][]float64{{1}, {2}, {3}, {10}, {11}, {12}}
	y := []int{1, 1, 1, 0, 0, 0}
	m, err := Train(x, y, Config{Rounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if (m.Score(x[i]) >= 0) != (y[i] == 1) {
			t.Fatalf("sample %d misclassified", i)
		}
	}
}

func TestTrainDiagonal(t *testing.T) {
	// Diagonal boundary needs an ensemble of axis stumps.
	rng := rand.New(rand.NewSource(1))
	var x [][]float64
	var y []int
	for i := 0; i < 400; i++ {
		a, b := rng.Float64(), rng.Float64()
		x = append(x, []float64{a, b})
		if a+b > 1 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	m, err := Train(x, y, Config{Rounds: 120})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range x {
		if (m.Score(x[i]) >= 0) == (y[i] == 1) {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(x)); frac < 0.95 {
		t.Fatalf("diagonal training accuracy = %v, want >= 0.95", frac)
	}
}

func TestTrainingErrorDecreasesWithRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var x [][]float64
	var y []int
	for i := 0; i < 300; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		x = append(x, []float64{a, b})
		if a*a+b*b > 1.2 { // ring boundary, hard for stumps
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	trainErr := func(rounds int) float64 {
		m, err := Train(x, y, Config{Rounds: rounds})
		if err != nil {
			t.Fatal(err)
		}
		wrong := 0
		for i := range x {
			if (m.Score(x[i]) >= 0) != (y[i] == 1) {
				wrong++
			}
		}
		return float64(wrong) / float64(len(x))
	}
	e5, e80 := trainErr(5), trainErr(80)
	if e80 > e5 {
		t.Fatalf("training error grew with rounds: %v -> %v", e5, e80)
	}
}

func TestScoreRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var x [][]float64
	var y []int
	for i := 0; i < 100; i++ {
		x = append(x, []float64{rng.NormFloat64()})
		if x[i][0] > 0.1*rng.NormFloat64() {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	m, err := Train(x, y, Config{Rounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		s := m.Score(x[i])
		if s < -1-1e-12 || s > 1+1e-12 || math.IsNaN(s) {
			t.Fatalf("score %v out of [-1,1]", s)
		}
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, nil, Config{}); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := Train([][]float64{{1}}, []int{0, 1}, Config{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Train([][]float64{{1}, {2, 3}}, []int{0, 1}, Config{}); err == nil {
		t.Fatal("ragged features accepted")
	}
	if _, err := Train([][]float64{{1}, {2}}, []int{0, 0}, Config{}); err == nil {
		t.Fatal("single class accepted")
	}
	if _, err := Train([][]float64{{1}, {2}}, []int{0, 3}, Config{}); err == nil {
		t.Fatal("bad label accepted")
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var x [][]float64
	var y []int
	for i := 0; i < 150; i++ {
		x = append(x, []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
		if x[i][0]-x[i][2] > 0 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	a, err := Train(x, y, Config{Rounds: 40})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(x, y, Config{Rounds: 40})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds() != b.Rounds() {
		t.Fatal("round count differs")
	}
	probe := []float64{0.2, -0.7, 0.4}
	if a.Score(probe) != b.Score(probe) {
		t.Fatal("scores differ across identical runs")
	}
}

func TestConstantFeatureIgnored(t *testing.T) {
	// A constant feature offers no threshold; training must still work
	// using the informative one.
	x := [][]float64{{5, 1}, {5, 2}, {5, 8}, {5, 9}}
	y := []int{0, 0, 1, 1}
	m, err := Train(x, y, Config{Rounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if (m.Score(x[i]) >= 0) != (y[i] == 1) {
			t.Fatalf("sample %d misclassified", i)
		}
	}
	for _, s := range m.Stumps {
		if s.Feature == 0 {
			t.Fatal("stump built on the constant feature")
		}
	}
}

func TestAlphasPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var x [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		x = append(x, []float64{rng.NormFloat64(), rng.NormFloat64()})
		if x[i][0]+0.3*x[i][1] > 0.2 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	m, err := Train(x, y, Config{Rounds: 60})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range m.Alphas {
		if a <= 0 {
			t.Fatalf("alpha %d = %v, want positive (weak learner better than chance)", i, a)
		}
	}
}

func TestClassBalanceRaisesMinorityRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var x [][]float64
	var y []int
	for i := 0; i < 600; i++ {
		v := rng.NormFloat64()
		lab := 0
		if i%15 == 0 {
			v += 1.2 // weakly separated minority
			lab = 1
		}
		x = append(x, []float64{v})
		y = append(y, lab)
	}
	recall := func(cb bool) float64 {
		m, err := Train(x, y, Config{Rounds: 40, ClassBalance: cb})
		if err != nil {
			t.Fatal(err)
		}
		tp, pos := 0, 0
		for i := range x {
			if y[i] == 1 {
				pos++
				if m.Score(x[i]) >= 0 {
					tp++
				}
			}
		}
		return float64(tp) / float64(pos)
	}
	if recall(true) < recall(false) {
		t.Fatalf("class balance lowered recall: %v vs %v", recall(true), recall(false))
	}
}
