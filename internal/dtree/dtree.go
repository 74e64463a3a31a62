// Package dtree implements CART-style binary decision trees and bagged
// random forests, rounding out the shallow-learning detector family
// (decision trees were among the earliest data-driven hotspot filters).
package dtree

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// TreeConfig parameterizes a single tree.
type TreeConfig struct {
	// MaxDepth bounds the tree height (default 8).
	MaxDepth int
	// MinLeaf is the minimum samples in a leaf (default 2).
	MinLeaf int
	// MaxFeatures limits the features examined per split; 0 means all,
	// -1 means sqrt(dim) (the forest default).
	MaxFeatures int
	// Seed drives the per-split feature subsampling.
	Seed int64
}

func (c *TreeConfig) normalize(dim int) {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 8
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 2
	}
	if c.MaxFeatures < 0 {
		c.MaxFeatures = int(math.Sqrt(float64(dim)))
		if c.MaxFeatures < 1 {
			c.MaxFeatures = 1
		}
	}
	if c.MaxFeatures == 0 || c.MaxFeatures > dim {
		c.MaxFeatures = dim
	}
}

// node is one tree node; leaves carry the positive-class probability.
type node struct {
	feature   int
	threshold float64
	left      int32
	right     int32
	prob      float64
	leaf      bool
}

// Tree is a trained decision tree.
type Tree struct {
	nodes []node
	dim   int
}

// TrainTree fits one tree on X with binary labels y and optional sample
// weights (nil means uniform).
func TrainTree(x [][]float64, y []int, w []float64, cfg TreeConfig) (*Tree, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return nil, fmt.Errorf("dtree: bad training set: %d samples, %d labels", n, len(y))
	}
	dim := len(x[0])
	for i := range x {
		if len(x[i]) != dim {
			return nil, fmt.Errorf("dtree: sample %d has dim %d, want %d", i, len(x[i]), dim)
		}
		if y[i] != 0 && y[i] != 1 {
			return nil, fmt.Errorf("dtree: label %d at sample %d", y[i], i)
		}
	}
	if w == nil {
		w = make([]float64, n)
		for i := range w {
			w[i] = 1
		}
	} else if len(w) != n {
		return nil, fmt.Errorf("dtree: %d weights for %d samples", len(w), n)
	}
	cfg.normalize(dim)
	t := &Tree{dim: dim}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	t.build(x, y, w, idx, 0, cfg, rng)
	return t, nil
}

// build grows the subtree over idx and returns its node index.
func (t *Tree) build(x [][]float64, y []int, w []float64, idx []int, depth int, cfg TreeConfig, rng *rand.Rand) int32 {
	var wPos, wTot float64
	for _, i := range idx {
		wTot += w[i]
		if y[i] == 1 {
			wPos += w[i]
		}
	}
	prob := 0.0
	if wTot > 0 {
		prob = wPos / wTot
	}
	me := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{leaf: true, prob: prob})
	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeaf || prob == 0 || prob == 1 {
		return me
	}
	feat, thr, ok := bestSplit(x, y, w, idx, cfg, rng)
	if !ok {
		return me
	}
	var left, right []int
	for _, i := range idx {
		if x[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < cfg.MinLeaf || len(right) < cfg.MinLeaf {
		return me
	}
	l := t.build(x, y, w, left, depth+1, cfg, rng)
	r := t.build(x, y, w, right, depth+1, cfg, rng)
	t.nodes[me] = node{feature: feat, threshold: thr, left: l, right: r}
	return me
}

// bestSplit finds the weighted-gini-optimal (feature, threshold) over a
// random feature subset.
func bestSplit(x [][]float64, y []int, w []float64, idx []int, cfg TreeConfig, rng *rand.Rand) (int, float64, bool) {
	dim := len(x[idx[0]])
	feats := rng.Perm(dim)[:cfg.MaxFeatures]

	bestGini := math.Inf(1)
	bestFeat, bestThr := -1, 0.0
	ord := make([]int, len(idx))
	for _, f := range feats {
		copy(ord, idx)
		sort.Slice(ord, func(a, b int) bool { return x[ord[a]][f] < x[ord[b]][f] })
		var totPos, tot float64
		for _, i := range ord {
			tot += w[i]
			if y[i] == 1 {
				totPos += w[i]
			}
		}
		var leftPos, left float64
		for k := 0; k+1 < len(ord); k++ {
			i := ord[k]
			left += w[i]
			if y[i] == 1 {
				leftPos += w[i]
			}
			if x[ord[k+1]][f] == x[i][f] {
				continue
			}
			right := tot - left
			rightPos := totPos - leftPos
			g := left*gini(leftPos/left) + right*gini(rightPos/right)
			if g < bestGini {
				bestGini = g
				bestFeat = f
				bestThr = (x[i][f] + x[ord[k+1]][f]) / 2
			}
		}
	}
	return bestFeat, bestThr, bestFeat >= 0
}

func gini(p float64) float64 { return 2 * p * (1 - p) }

// Prob returns the positive-class probability for x.
func (t *Tree) Prob(x []float64) float64 {
	i := int32(0)
	for {
		n := t.nodes[i]
		if n.leaf {
			return n.prob
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// ForestConfig parameterizes a random forest.
type ForestConfig struct {
	// Trees is the ensemble size (default 50).
	Trees int
	// Tree is the per-tree configuration; MaxFeatures defaults to
	// sqrt(dim) as usual for forests.
	Tree TreeConfig
	// Seed drives bootstrap sampling.
	Seed int64
	// ClassBalance oversamples the minority class in each bootstrap.
	ClassBalance bool
}

// Forest is a bagged ensemble of trees.
type Forest struct {
	trees []*Tree
}

// TrainForest fits a random forest on X with binary labels y.
func TrainForest(x [][]float64, y []int, cfg ForestConfig) (*Forest, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return nil, fmt.Errorf("dtree: bad training set: %d samples, %d labels", n, len(y))
	}
	if cfg.Trees <= 0 {
		cfg.Trees = 50
	}
	if cfg.Tree.MaxFeatures == 0 {
		cfg.Tree.MaxFeatures = -1 // sqrt(dim)
	}
	var pos, neg []int
	for i, v := range y {
		switch v {
		case 1:
			pos = append(pos, i)
		case 0:
			neg = append(neg, i)
		default:
			return nil, fmt.Errorf("dtree: label %d at sample %d", v, i)
		}
	}
	if len(pos) == 0 || len(neg) == 0 {
		return nil, errors.New("dtree: training set needs both classes")
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	f := &Forest{trees: make([]*Tree, 0, cfg.Trees)}
	for k := 0; k < cfg.Trees; k++ {
		var sample []int
		if cfg.ClassBalance {
			// Balanced bootstrap: n/2 draws from each class.
			for i := 0; i < n/2; i++ {
				sample = append(sample, pos[rng.Intn(len(pos))])
			}
			for i := 0; i < n-n/2; i++ {
				sample = append(sample, neg[rng.Intn(len(neg))])
			}
		} else {
			for i := 0; i < n; i++ {
				sample = append(sample, rng.Intn(n))
			}
		}
		xs := make([][]float64, len(sample))
		ys := make([]int, len(sample))
		for i, s := range sample {
			xs[i] = x[s]
			ys[i] = y[s]
		}
		tc := cfg.Tree
		tc.Seed = rng.Int63()
		tree, err := TrainTree(xs, ys, nil, tc)
		if err != nil {
			return nil, fmt.Errorf("dtree: tree %d: %w", k, err)
		}
		f.trees = append(f.trees, tree)
	}
	return f, nil
}

// Prob returns the mean positive-class probability across trees.
func (f *Forest) Prob(x []float64) float64 {
	var s float64
	for _, t := range f.trees {
		s += t.Prob(x)
	}
	return s / float64(len(f.trees))
}

// Size returns the number of trees.
func (f *Forest) Size() int { return len(f.trees) }
