// Package boost implements AdaBoost over decision stumps, the boosting
// baseline of the shallow hotspot-detection literature.
//
// Each weak learner is a single-feature threshold test. Training presorts
// every feature once and derives its candidate thresholds from that
// order, an O(features x n log n) setup. A round then walks every
// feature's sorted samples once, adding signed weights into a running
// error, so it costs one add per sample per feature, sharded over
// features on the kernel pool; the pick is the one a serial scan makes,
// to the bit, at any worker count.
package boost

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/golitho/hsd/internal/tensor"
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

// minWeightedError stops training early when the best stump's error
// exceeds 0.5 - minWeightedError (no better than chance).
const minWeightedError = 1e-6

// Config parameterizes training.
type Config struct {
	// Rounds is the number of boosting rounds (default 100).
	Rounds int
	// ClassBalance starts each class with equal total weight, the
	// imbalance-aware variant used for minority hotspot classes.
	ClassBalance bool
}

func (c *Config) normalize() {
	if c.Rounds <= 0 {
		c.Rounds = 100
	}
}

// Model is a trained boosted ensemble.
type Model struct {
	Stumps []Stump
	Alphas []float64
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

	s := newSearch(x, presort(x))
	w := initialWeights(ys, cfg.ClassBalance)
	m := &Model{}
	for round := 0; round < cfg.Rounds; round++ {
		best, bestErr := s.best(ys, w)
		if bestErr >= 0.5-minWeightedError {
			break // weak learner no better than chance
		}
		if bestErr < 1e-12 {
			bestErr = 1e-12 // avoid infinite alpha on separable data
		}
		alpha := 0.5 * math.Log((1-bestErr)/bestErr)
		m.Stumps = append(m.Stumps, best)
		m.Alphas = append(m.Alphas, alpha)
		reweight(w, x, ys, best, alpha)
		if bestErr < 1e-10 {
			break // perfectly separated; further rounds add nothing
		}
	}
	if len(m.Stumps) == 0 {
		return nil, errors.New("boost: no useful weak learner found")
	}
	return m, nil
}

// initialWeights is the first round's sample weights: uniform, or equal
// total weight per class when classBalance is set.
func initialWeights(ys []float64, classBalance bool) []float64 {
	w := make([]float64, len(ys))
	if !classBalance {
		for i := range w {
			w[i] = 1 / float64(len(ys))
		}
		return w
	}
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
	return w
}

// reweight scales every sample's weight by exp(-alpha·y·h(x)) for the
// round's stump h and renormalises the weights to sum to one.
func reweight(w []float64, x [][]float64, ys []float64, h Stump, alpha float64) {
	var z float64
	for i := range w {
		w[i] *= math.Exp(-alpha * ys[i] * h.Eval(x[i]))
		z += w[i]
	}
	inv := 1 / z
	for i := range w {
		w[i] *= inv
	}
}

// presort returns, for every feature, the sample indices in ascending
// order of that feature's value.
func presort(x [][]float64) [][]int {
	order := make([][]int, len(x[0]))
	for f := range order {
		idx := make([]int, len(x))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return x[idx[a]][f] < x[idx[b]][f] })
		order[f] = idx
	}
	return order
}

// search is the stump search of one fit: everything about it that
// depends on the samples' order alone, derived once, and the per-round
// buffers.
//
// A feature's candidate stumps are its thresholds: one below every
// sample, then one past each run of equal sorted values (the midpoint to
// the next run, or one above the last). Candidate c of feature f is
// cand[off[f]+c]: its threshold, and how many of the feature's sorted
// samples lie below it. Walking the candidates in order, a round adds
// each newly passed sample's signed weight to the running error of
// "predict +1 above the threshold", so a round is one add per sample
// per feature.
type search struct {
	n     int
	order []int32 // feature f's sorted sample indices at order[f*n:(f+1)*n]
	off   []int   // feature f's candidates are cand[off[f]:off[f+1]]
	cand  []candidate

	sw   []float64 // this round's signed weights ys[i]·w[i]
	errs []float64 // each feature's lowest error this round
	wins []Stump   // the stump that reached it
}

// candidate is one threshold of one feature.
type candidate struct {
	below int // sorted samples below the threshold
	thr   float64
}

// newSearch derives the candidate thresholds of every feature from
// order, presort's result for x.
func newSearch(x [][]float64, order [][]int) *search {
	n, dim := len(x), len(order)
	s := &search{
		n: n, order: make([]int32, 0, n*dim), off: make([]int, dim+1),
		sw: make([]float64, n), errs: make([]float64, dim), wins: make([]Stump, dim),
	}
	for f, idx := range order {
		for _, i := range idx {
			s.order = append(s.order, int32(i))
		}
		s.cand = append(s.cand, candidate{0, x[idx[0]][f] - 1})
		for k, i := range idx {
			// Only a valid threshold when the next value differs.
			if k+1 < n && x[idx[k+1]][f] == x[i][f] {
				continue
			}
			thr := x[i][f] + 1
			if k+1 < n {
				thr = (x[i][f] + x[idx[k+1]][f]) / 2
			}
			s.cand = append(s.cand, candidate{k + 1, thr})
		}
		s.off[f+1] = len(s.cand)
	}
	return s
}

// best finds the stump minimizing weighted error under weights w. The
// features are scanned in contiguous shards on the kernel pool; each
// keeps its own first lowest-error candidate, and the features' winners
// are then taken in feature order under the same strict <, so the
// result is the first lowest-error candidate of a serial scan whatever
// the sharding.
func (s *search) best(ys, w []float64) (Stump, float64) {
	// Error of the stump "predict +1 everywhere" (threshold below min,
	// polarity +1): all negatives are wrong. Every feature starts here.
	errPlus := 0.0
	for i := range ys {
		if ys[i] < 0 {
			errPlus += w[i]
		}
	}
	// Moving the threshold above a sample flips its prediction from +1
	// to -1: a positive stops being an error and a negative becomes
	// one. ys is ±1, so ys[i]·w[i] is ±w[i] exactly and adding it is the
	// same operation as adding or subtracting w[i].
	for i := range ys {
		s.sw[i] = ys[i] * w[i]
	}
	tensor.Default().Run(len(s.errs), 0, func(lo, hi int) {
		for f := lo; f < hi; f++ {
			s.wins[f], s.errs[f] = s.scan(f, errPlus)
		}
	})
	best := Stump{Polarity: 1}
	bestErr := math.Inf(1)
	for f, e := range s.errs {
		if e < bestErr {
			best, bestErr = s.wins[f], e
		}
	}
	return best, bestErr
}

// scan returns feature f's first lowest-error candidate stump this
// round, starting from errPlus, the error below every sample.
func (s *search) scan(f int, errPlus float64) (Stump, float64) {
	order, sw := s.order[f*s.n:(f+1)*s.n], s.sw
	best := Stump{Feature: f, Polarity: 1}
	bestErr := math.Inf(1)
	k := 0
	for _, c := range s.cand[s.off[f]:s.off[f+1]] {
		for _, i := range order[k:c.below] {
			errPlus += sw[i]
		}
		k = c.below
		if errPlus < bestErr {
			bestErr = errPlus
			best.Threshold, best.Polarity = c.thr, 1
		}
		if 1-errPlus < bestErr {
			bestErr = 1 - errPlus
			best.Threshold, best.Polarity = c.thr, -1
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
