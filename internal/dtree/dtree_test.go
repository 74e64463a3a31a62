package dtree

import (
	"math"
	"math/rand"
	"testing"
)

func axisData(rng *rand.Rand, n int) ([][]float64, []int) {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i] = []float64{rng.Float64() * 10, rng.Float64()}
		if x[i][0] > 5 {
			y[i] = 1
		}
	}
	return x, y
}

func TestTreeAxisSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := axisData(rng, 300)
	tree, err := TrainTree(x, y, nil, TreeConfig{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if (tree.Prob(x[i]) >= 0.5) != (y[i] == 1) {
			t.Fatalf("sample %d misclassified", i)
		}
	}
	if d := depth(tree, 0); d > 3 {
		t.Fatalf("depth = %d exceeds cap", d)
	}
}

// depth is the height of the subtree rooted at node i.
func depth(t *Tree, i int32) int {
	n := t.nodes[i]
	if n.leaf {
		return 0
	}
	return 1 + max(depth(t, n.left), depth(t, n.right))
}

func TestTreeXor(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var x [][]float64
	var y []int
	for i := 0; i < 400; i++ {
		a, b := rng.Intn(2), rng.Intn(2)
		x = append(x, []float64{float64(a) + rng.NormFloat64()*0.05, float64(b) + rng.NormFloat64()*0.05})
		y = append(y, a^b)
	}
	tree, err := TrainTree(x, y, nil, TreeConfig{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range x {
		if (tree.Prob(x[i]) >= 0.5) == (y[i] == 1) {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(x)); frac < 0.98 {
		t.Fatalf("XOR accuracy = %v", frac)
	}
}

func TestTreeDepthZeroStopsAtRoot(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []int{0, 0, 1, 1}
	tree, err := TrainTree(x, y, nil, TreeConfig{MaxDepth: 8, MinLeaf: 4})
	if err != nil {
		t.Fatal(err)
	}
	// MinLeaf 4 forbids any split of 4 samples: root leaf with prob 0.5.
	if len(tree.nodes) != 1 {
		t.Fatalf("nodes = %d, want 1", len(tree.nodes))
	}
	if p := tree.Prob([]float64{0}); p != 0.5 {
		t.Fatalf("root prob = %v", p)
	}
}

func TestTreeWeightsShiftLeafProbs(t *testing.T) {
	// Same point set; heavy positive weights raise the leaf probability.
	x := [][]float64{{1}, {1}, {1}, {1}}
	y := []int{1, 0, 0, 0}
	w := []float64{9, 1, 1, 1}
	tree, err := TrainTree(x, y, w, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if p := tree.Prob([]float64{1}); math.Abs(p-0.75) > 1e-12 {
		t.Fatalf("weighted prob = %v, want 0.75", p)
	}
}

func TestTreeValidation(t *testing.T) {
	if _, err := TrainTree(nil, nil, nil, TreeConfig{}); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := TrainTree([][]float64{{1}}, []int{2}, nil, TreeConfig{}); err == nil {
		t.Fatal("bad label accepted")
	}
	if _, err := TrainTree([][]float64{{1}, {2, 3}}, []int{0, 1}, nil, TreeConfig{}); err == nil {
		t.Fatal("ragged input accepted")
	}
	if _, err := TrainTree([][]float64{{1}}, []int{1}, []float64{1, 2}, TreeConfig{}); err == nil {
		t.Fatal("bad weight length accepted")
	}
}

func TestForestBeatsSingleTreeOnNoisyData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gen := func(n int) ([][]float64, []int) {
		x := make([][]float64, n)
		y := make([]int, n)
		for i := range x {
			x[i] = make([]float64, 10)
			for j := range x[i] {
				x[i][j] = rng.NormFloat64()
			}
			// True signal in features 0-2, rest noise; 10% label noise.
			if x[i][0]+x[i][1]-x[i][2] > 0 {
				y[i] = 1
			}
			if rng.Float64() < 0.1 {
				y[i] = 1 - y[i]
			}
		}
		return x, y
	}
	xTr, yTr := gen(500)
	xTe, yTe := gen(500)
	acc := func(prob func([]float64) float64) float64 {
		c := 0
		for i := range xTe {
			if (prob(xTe[i]) >= 0.5) == (yTe[i] == 1) {
				c++
			}
		}
		return float64(c) / float64(len(xTe))
	}
	tree, err := TrainTree(xTr, yTr, nil, TreeConfig{MaxDepth: 12, MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := TrainForest(xTr, yTr, ForestConfig{Trees: 40, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	at, af := acc(tree.Prob), acc(forest.Prob)
	if af < at-0.02 {
		t.Fatalf("forest (%.3f) clearly worse than single deep tree (%.3f)", af, at)
	}
	if af < 0.75 {
		t.Fatalf("forest accuracy = %v", af)
	}
}

func TestForestClassBalanceRaisesRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var x [][]float64
	var y []int
	for i := 0; i < 600; i++ {
		v := rng.NormFloat64()
		lab := 0
		if i%12 == 0 { // minority positive at +1 shift
			v += 1.5
			lab = 1
		}
		x = append(x, []float64{v, rng.NormFloat64()})
		y = append(y, lab)
	}
	recall := func(f *Forest) float64 {
		tp, pos := 0, 0
		for i := range x {
			if y[i] == 1 {
				pos++
				if f.Prob(x[i]) >= 0.5 {
					tp++
				}
			}
		}
		return float64(tp) / float64(pos)
	}
	plain, err := TrainForest(x, y, ForestConfig{Trees: 30, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	balanced, err := TrainForest(x, y, ForestConfig{Trees: 30, Seed: 6, ClassBalance: true})
	if err != nil {
		t.Fatal(err)
	}
	if recall(balanced) < recall(plain) {
		t.Fatalf("balanced recall %v below plain %v", recall(balanced), recall(plain))
	}
}

func TestForestValidation(t *testing.T) {
	if _, err := TrainForest(nil, nil, ForestConfig{}); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := TrainForest([][]float64{{1}, {2}}, []int{1, 1}, ForestConfig{}); err == nil {
		t.Fatal("single class accepted")
	}
	if _, err := TrainForest([][]float64{{1}, {2}}, []int{1, 7}, ForestConfig{}); err == nil {
		t.Fatal("bad label accepted")
	}
}

func TestForestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, y := axisData(rng, 200)
	a, err := TrainForest(x, y, ForestConfig{Trees: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainForest(x, y, ForestConfig{Trees: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{4.9, 0.5}
	if a.Prob(probe) != b.Prob(probe) {
		t.Fatal("forest not deterministic")
	}
	if a.Size() != 10 {
		t.Fatalf("size = %d", a.Size())
	}
}

func TestForestProbRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, y := axisData(rng, 150)
	f, err := TrainForest(x, y, ForestConfig{Trees: 15, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		p := f.Prob(x[i])
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("prob %v out of range", p)
		}
	}
}
