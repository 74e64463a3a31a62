// Package svm implements a kernel support vector machine trained with a
// simplified SMO algorithm (Platt 1998, in the simplified variant with a
// randomized second working-set choice), the representative shallow
// hotspot classifier of the pre-deep-learning era.
//
// Class-weighted regularization (a larger C on the hotspot class) provides
// the imbalance handling the hotspot literature applies to SVM baselines.
package svm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/golitho/hsd/internal/tensor"
)

// Kernel is a Mercer kernel over feature vectors.
type Kernel interface {
	// Eval computes k(a, b).
	Eval(a, b []float64) float64
	// Name identifies the kernel in reports.
	Name() string
}

// Linear is the dot-product kernel.
type Linear struct{}

var _ Kernel = Linear{}

// Eval implements Kernel.
func (Linear) Eval(a, b []float64) float64 { return tensor.Dot(a, b) }

// Name implements Kernel.
func (Linear) Name() string { return "linear" }

// RBF is the Gaussian radial basis kernel exp(-gamma * |a-b|^2).
type RBF struct {
	Gamma float64
}

var _ Kernel = RBF{}

// Eval implements Kernel.
func (k RBF) Eval(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return math.Exp(-k.Gamma * d2)
}

// Name implements Kernel.
func (k RBF) Name() string { return fmt.Sprintf("rbf(g=%.3g)", k.Gamma) }

// kktTol is the KKT violation tolerance, and maxPasses the number of
// consecutive passes without any alpha update that declares convergence.
const (
	kktTol    = 1e-3
	maxPasses = 5
)

// Config parameterizes training.
type Config struct {
	// Kernel defaults to RBF with gamma 1/dim.
	Kernel Kernel
	// C is the soft-margin penalty (default 1).
	C float64
	// PosWeight scales C for positive (hotspot) samples; > 1 penalizes
	// missed hotspots harder (default 1).
	PosWeight float64
	// MaxIter caps total passes over the data (default 200).
	MaxIter int
	// Seed drives the randomized working-set selection.
	Seed int64
}

func (c *Config) normalize(dim int) {
	if c.Kernel == nil {
		c.Kernel = RBF{Gamma: 1 / float64(max(dim, 1))}
	}
	if c.C <= 0 {
		c.C = 1
	}
	if c.PosWeight <= 0 {
		c.PosWeight = 1
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 200
	}
}

// Model is a trained SVM.
type Model struct {
	kernel  Kernel
	bias    float64
	support [][]float64 // support vectors
	coef    []float64   // alpha_i * y_i for each support vector
	stats   TrainStats
}

// TrainStats reports the cost of the SMO fit: full passes over the data
// (the SVM's analogue of epochs) and total wall-clock time.
type TrainStats struct {
	Passes  int
	Elapsed time.Duration
}

// TrainStats returns the fit-cost record of the training run.
func (m *Model) TrainStats() TrainStats { return m.stats }

// Train fits an SVM on X with binary labels y (0 = negative, 1 = positive).
func Train(x [][]float64, y []int, cfg Config) (*Model, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return nil, fmt.Errorf("svm: bad training set: %d samples, %d labels", n, len(y))
	}
	dim := len(x[0])
	for i, xi := range x {
		if len(xi) != dim {
			return nil, fmt.Errorf("svm: sample %d has dim %d, want %d", i, len(xi), dim)
		}
	}
	cfg.normalize(dim)
	// Signed labels.
	ys := make([]float64, n)
	hasPos, hasNeg := false, false
	for i, v := range y {
		switch v {
		case 0:
			ys[i] = -1
			hasNeg = true
		case 1:
			ys[i] = 1
			hasPos = true
		default:
			return nil, fmt.Errorf("svm: label %d at sample %d (want 0/1)", v, i)
		}
	}
	if !hasPos || !hasNeg {
		return nil, errors.New("svm: training set needs both classes")
	}

	ci := func(i int) float64 {
		if ys[i] > 0 {
			return cfg.C * cfg.PosWeight
		}
		return cfg.C
	}

	// Lazy kernel-row cache.
	cache := make([][]float64, n)
	krow := func(i int) []float64 {
		if cache[i] == nil {
			row := make([]float64, n)
			for j := 0; j < n; j++ {
				row[j] = cfg.Kernel.Eval(x[i], x[j])
			}
			cache[i] = row
		}
		return cache[i]
	}

	alpha := make([]float64, n)
	b := 0.0
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	decision := func(i int) float64 {
		row := krow(i)
		var s float64
		for j := 0; j < n; j++ {
			if alpha[j] != 0 {
				s += alpha[j] * ys[j] * row[j]
			}
		}
		return s + b
	}

	trainStart := time.Now()
	passes, iter := 0, 0
	for passes < maxPasses && iter < cfg.MaxIter {
		changed := 0
		for i := 0; i < n; i++ {
			ei := decision(i) - ys[i]
			if !((ys[i]*ei < -kktTol && alpha[i] < ci(i)) || (ys[i]*ei > kktTol && alpha[i] > 0)) {
				continue
			}
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			ej := decision(j) - ys[j]
			ai, aj := alpha[i], alpha[j]
			var lo, hi float64
			if ys[i] != ys[j] {
				// alpha_j - alpha_i is invariant on this pair.
				lo = math.Max(0, aj-ai)
				hi = math.Min(ci(j), ci(i)+aj-ai)
			} else {
				lo = math.Max(0, ai+aj-ci(i))
				hi = math.Min(ci(j), ai+aj)
			}
			if lo >= hi {
				continue
			}
			kii, kjj := krow(i)[i], krow(j)[j]
			kij := krow(i)[j]
			eta := 2*kij - kii - kjj
			if eta >= 0 {
				continue
			}
			ajNew := aj - ys[j]*(ei-ej)/eta
			if ajNew > hi {
				ajNew = hi
			} else if ajNew < lo {
				ajNew = lo
			}
			if math.Abs(ajNew-aj) < 1e-7 {
				continue
			}
			aiNew := ai + ys[i]*ys[j]*(aj-ajNew)
			// Bias update (Platt).
			b1 := b - ei - ys[i]*(aiNew-ai)*kii - ys[j]*(ajNew-aj)*kij
			b2 := b - ej - ys[i]*(aiNew-ai)*kij - ys[j]*(ajNew-aj)*kjj
			switch {
			case aiNew > 0 && aiNew < ci(i):
				b = b1
			case ajNew > 0 && ajNew < ci(j):
				b = b2
			default:
				b = (b1 + b2) / 2
			}
			alpha[i], alpha[j] = aiNew, ajNew
			changed++
		}
		iter++
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}

	m := &Model{
		kernel: cfg.Kernel,
		bias:   b,
		stats:  TrainStats{Passes: iter, Elapsed: time.Since(trainStart)},
	}
	for i := 0; i < n; i++ {
		if alpha[i] > 1e-9 {
			m.support = append(m.support, x[i])
			m.coef = append(m.coef, alpha[i]*ys[i])
		}
	}
	if len(m.support) == 0 {
		return nil, errors.New("svm: training produced no support vectors")
	}
	return m, nil
}

// Decision returns the signed margin of x; 0 and above means hotspot.
func (m *Model) Decision(x []float64) float64 {
	s := m.bias
	for i, sv := range m.support {
		s += m.coef[i] * m.kernel.Eval(sv, x)
	}
	return s
}
