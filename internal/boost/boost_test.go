package boost

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/golitho/hsd/internal/tensor"
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

// serialBestStump is the stump search as a plain serial scan, kept as
// the reference the sharded search must match: every feature's running
// error rebuilt from the negatives' weights, the label branch on every
// sample and the thresholds derived on the fly.
func serialBestStump(x [][]float64, ys, w []float64, order [][]int) (Stump, float64) {
	n := len(x)
	best := Stump{Polarity: 1}
	bestErr := math.Inf(1)
	for f := range order {
		idx := order[f]
		errPlus := 0.0
		for i := 0; i < n; i++ {
			if ys[i] < 0 {
				errPlus += w[i]
			}
		}
		consider := func(e float64, thr float64) {
			if e < bestErr {
				bestErr = e
				best = Stump{Feature: f, Threshold: thr, Polarity: 1}
			}
			if 1-e < bestErr {
				bestErr = 1 - e
				best = Stump{Feature: f, Threshold: thr, Polarity: -1}
			}
		}
		consider(errPlus, x[idx[0]][f]-1)
		for k := 0; k < n; k++ {
			i := idx[k]
			if ys[i] > 0 {
				errPlus += w[i]
			} else {
				errPlus -= w[i]
			}
			if k+1 < n && x[idx[k+1]][f] == x[i][f] {
				continue
			}
			thr := x[i][f]
			if k+1 < n {
				thr = (x[i][f] + x[idx[k+1]][f]) / 2
			} else {
				thr = x[i][f] + 1
			}
			consider(errPlus, thr)
		}
	}
	return best, bestErr
}

// TestBestStumpMatchesSerial runs boosting rounds with the sharded search
// and checks every round's pick against the serial scan by Float64bits,
// at several pool sizes: ties broken the same way (the first candidate
// in feature order wins), thresholds and errors to the bit.
func TestBestStumpMatchesSerial(t *testing.T) {
	type set struct {
		name string
		x    [][]float64
		y    []int
	}
	rng := rand.New(rand.NewSource(30))
	gen := func(n, dim int, val func(i, f int) float64) ([][]float64, []int) {
		x := make([][]float64, n)
		y := make([]int, n)
		for i := range x {
			x[i] = make([]float64, dim)
			for f := range x[i] {
				x[i][f] = val(i, f)
			}
			y[i] = rng.Intn(2)
		}
		y[0], y[n-1] = 0, 1 // both classes, when there are two samples
		return x, y
	}
	var sets []set
	add := func(name string, n, dim int, val func(i, f int) float64) {
		x, y := gen(n, dim, val)
		sets = append(sets, set{name, x, y})
	}
	add("random", 120, 37, func(int, int) float64 { return rng.NormFloat64() })
	add("heavy ties", 90, 23, func(int, int) float64 { return float64(rng.Intn(3)) })
	add("constant feature", 60, 9, func(_, f int) float64 {
		if f == 4 {
			return 5
		}
		return rng.Float64()
	})
	// Every feature is the one before it or a fresh one, in runs of up to
	// four, so equal-error candidates sit on both sides of any shard
	// boundary the pool can draw.
	dup := make([][]float64, 17)
	for f := range dup {
		if f%4 == 0 {
			dup[f] = make([]float64, 80)
			for i := range dup[f] {
				dup[f][i] = float64(rng.Intn(5))
			}
		} else {
			dup[f] = dup[f-1]
		}
	}
	add("duplicated features", 80, len(dup), func(i, f int) float64 { return dup[f][i] })
	add("identical features", 50, 11, func(i, _ int) float64 { return float64(i % 7) })
	add("n = 1", 1, 5, func(int, int) float64 { return rng.NormFloat64() })

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer tensor.SetDefaultWorkers(0)
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		tensor.SetDefaultWorkers(procs)
		for _, d := range sets {
			ys := make([]float64, len(d.y))
			for i, v := range d.y {
				ys[i] = float64(2*v - 1)
			}
			order := presort(d.x)
			s := newSearch(d.x, order)
			for _, balance := range []bool{false, true} {
				w := initialWeights(ys, balance)
				for round := 0; round < 40; round++ {
					got, gotErr := s.best(ys, w)
					want, wantErr := serialBestStump(d.x, ys, w, order)
					if got.Feature != want.Feature || got.Polarity != want.Polarity ||
						math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold) ||
						math.Float64bits(gotErr) != math.Float64bits(wantErr) {
						t.Fatalf("procs %d, %s, balance %v, round %d: got %+v err %v, serial %+v err %v",
							procs, d.name, balance, round, got, gotErr, want, wantErr)
					}
					if wantErr >= 0.5 || wantErr < 1e-10 {
						break
					}
					reweight(w, d.x, ys, want, 0.5*math.Log((1-wantErr)/wantErr))
				}
			}
		}
	}
}
