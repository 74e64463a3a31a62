// Package logreg implements L2-regularized logistic regression trained
// with mini-batch SGD: the stacker the router calibrates each stage's
// confidence with.
package logreg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Config parameterizes training.
type Config struct {
	// Epochs over the data (default 50).
	Epochs int
	// BatchSize per SGD step (default 32).
	BatchSize int
	// LR is the learning rate (default 0.1).
	LR float64
	// L2 is the ridge penalty (default 1e-4).
	L2 float64
	// PosWeight scales the loss of positive samples (imbalance handling;
	// default 1).
	PosWeight float64
	// Seed drives shuffling and initialization.
	Seed int64
}

func (c *Config) normalize() {
	if c.Epochs <= 0 {
		c.Epochs = 50
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR <= 0 {
		c.LR = 0.1
	}
	if c.L2 < 0 {
		c.L2 = 0
	}
	if c.PosWeight <= 0 {
		c.PosWeight = 1
	}
}

// Model is a trained logistic-regression classifier.
type Model struct {
	Weights []float64
	Bias    float64
}

// Train fits the model on X with binary labels y.
func Train(x [][]float64, y []int, cfg Config) (*Model, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return nil, fmt.Errorf("logreg: bad training set: %d samples, %d labels", n, len(y))
	}
	dim := len(x[0])
	hasPos, hasNeg := false, false
	for i := range x {
		if len(x[i]) != dim {
			return nil, fmt.Errorf("logreg: sample %d has dim %d, want %d", i, len(x[i]), dim)
		}
		switch y[i] {
		case 0:
			hasNeg = true
		case 1:
			hasPos = true
		default:
			return nil, fmt.Errorf("logreg: label %d at sample %d", y[i], i)
		}
	}
	if !hasPos || !hasNeg {
		return nil, errors.New("logreg: training set needs both classes")
	}
	cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	m := &Model{Weights: make([]float64, dim)}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	gw := make([]float64, dim)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < n; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			for j := range gw {
				gw[j] = 0
			}
			gb := 0.0
			for _, idx := range order[start:end] {
				p := m.Prob(x[idx])
				t := float64(y[idx])
				w := 1.0
				if y[idx] == 1 {
					w = cfg.PosWeight
				}
				g := w * (p - t)
				for j, v := range x[idx] {
					gw[j] += g * v
				}
				gb += g
			}
			scale := cfg.LR / float64(end-start)
			for j := range m.Weights {
				m.Weights[j] -= scale*gw[j] + cfg.LR*cfg.L2*m.Weights[j]
			}
			m.Bias -= scale * gb
		}
	}
	return m, nil
}

// Prob returns P(hotspot | x).
func (m *Model) Prob(x []float64) float64 {
	s := m.Bias
	for j, v := range x {
		s += m.Weights[j] * v
	}
	return 1 / (1 + math.Exp(-s))
}
