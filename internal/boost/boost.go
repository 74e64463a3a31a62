// Package boost implements AdaBoost over decision stumps, the boosting
// baseline of the shallow hotspot-detection literature.
//
// Each weak learner is a single-feature threshold test. Training presorts
// every feature once and scans thresholds with running weighted error
// sums, so a round costs O(features x samples) after an O(features x
// n log n) setup.
package boost

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// Stump is a one-feature threshold classifier:
// predict +1 when polarity*(x[Feature]-Threshold) > 0, else -1.
type Stump struct {
	Feature   int
	Threshold float64
	Polarity  float64 // +1 or -1
}

// Eval returns the stump's +-1 vote on x.
func (s Stump) Eval(x []float64) float64 {
	if s.Polarity*(x[s.Feature]-s.Threshold) > 0 {
		return 1
	}
	return -1
}

// Config parameterizes training.
type Config struct {
	// Rounds is the number of boosting rounds (default 100).
	Rounds int
	// MinWeightedError stops training early when the best stump's error
	// exceeds 0.5 - MinWeightedError (no better than chance).
	// Default 1e-6.
	MinWeightedError float64
	// ClassBalance starts each class with equal total weight, the
	// imbalance-aware variant used for minority hotspot classes.
	ClassBalance bool
}

func (c *Config) normalize() {
	if c.Rounds <= 0 {
		c.Rounds = 100
	}
	if c.MinWeightedError <= 0 {
		c.MinWeightedError = 1e-6
	}
}

// Model is a trained boosted ensemble.
type Model struct {
	Stumps []Stump
	Alphas []float64
	// RoundTimes[i] is the wall-clock time of boosting round i (the
	// per-epoch cost of this learner); TrainTime is the whole fit
	// including presorting.
	RoundTimes []time.Duration
	TrainTime  time.Duration
}

// Train fits AdaBoost on X with binary labels y (0 = negative, 1 = positive).
func Train(x [][]float64, y []int, cfg Config) (*Model, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return nil, fmt.Errorf("boost: bad training set: %d samples, %d labels", n, len(y))
	}
	dim := len(x[0])
	ys := make([]float64, n)
	hasPos, hasNeg := false, false
	for i := range x {
		if len(x[i]) != dim {
			return nil, fmt.Errorf("boost: sample %d has dim %d, want %d", i, len(x[i]), dim)
		}
		switch y[i] {
		case 0:
			ys[i] = -1
			hasNeg = true
		case 1:
			ys[i] = 1
			hasPos = true
		default:
			return nil, fmt.Errorf("boost: label %d at sample %d (want 0/1)", y[i], i)
		}
	}
	if !hasPos || !hasNeg {
		return nil, errors.New("boost: training set needs both classes")
	}
	cfg.normalize()
	trainStart := time.Now()

	// Presort sample indices by each feature.
	order := make([][]int, dim)
	for f := 0; f < dim; f++ {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return x[idx[a]][f] < x[idx[b]][f] })
		order[f] = idx
	}

	w := make([]float64, n)
	if cfg.ClassBalance {
		nPos, nNeg := 0, 0
		for _, v := range ys {
			if v > 0 {
				nPos++
			} else {
				nNeg++
			}
		}
		for i := range w {
			if ys[i] > 0 {
				w[i] = 0.5 / float64(nPos)
			} else {
				w[i] = 0.5 / float64(nNeg)
			}
		}
	} else {
		for i := range w {
			w[i] = 1 / float64(n)
		}
	}
	m := &Model{}
	for round := 0; round < cfg.Rounds; round++ {
		roundStart := time.Now()
		best, bestErr := bestStump(x, ys, w, order)
		if bestErr >= 0.5-cfg.MinWeightedError {
			break // weak learner no better than chance
		}
		if bestErr < 1e-12 {
			bestErr = 1e-12 // avoid infinite alpha on separable data
		}
		alpha := 0.5 * math.Log((1-bestErr)/bestErr)
		m.Stumps = append(m.Stumps, best)
		m.Alphas = append(m.Alphas, alpha)
		// Reweight and renormalize.
		var z float64
		for i := range w {
			w[i] *= math.Exp(-alpha * ys[i] * best.Eval(x[i]))
			z += w[i]
		}
		inv := 1 / z
		for i := range w {
			w[i] *= inv
		}
		m.RoundTimes = append(m.RoundTimes, time.Since(roundStart))
		if bestErr < 1e-10 {
			break // perfectly separated; further rounds add nothing
		}
	}
	if len(m.Stumps) == 0 {
		return nil, errors.New("boost: no useful weak learner found")
	}
	m.TrainTime = time.Since(trainStart)
	return m, nil
}

// bestStump finds the stump minimizing weighted error under weights w.
func bestStump(x [][]float64, ys, w []float64, order [][]int) (Stump, float64) {
	n := len(x)
	best := Stump{Polarity: 1}
	bestErr := math.Inf(1)
	for f := range order {
		idx := order[f]
		// Error of the stump "predict +1 everywhere" (threshold below min,
		// polarity +1): all negatives are wrong.
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
		// Threshold below all samples.
		consider(errPlus, x[idx[0]][f]-1)
		for k := 0; k < n; k++ {
			i := idx[k]
			// Moving the threshold above x[i][f] flips sample i's
			// prediction from +1 to -1.
			if ys[i] > 0 {
				errPlus += w[i]
			} else {
				errPlus -= w[i]
			}
			// Only a valid threshold when the next value differs.
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

// Score returns the ensemble margin of x; 0 and above means hotspot. The
// magnitude is normalized by the total alpha mass, keeping scores in
// [-1, 1] regardless of round count.
func (m *Model) Score(x []float64) float64 {
	var s, total float64
	for i, st := range m.Stumps {
		s += m.Alphas[i] * st.Eval(x)
		total += m.Alphas[i]
	}
	if total == 0 {
		return 0
	}
	return s / total
}

// Rounds returns the number of weak learners in the ensemble.
func (m *Model) Rounds() int { return len(m.Stumps) }
