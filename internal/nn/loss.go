package nn

import (
	"math"

	"github.com/golitho/hsd/internal/tensor"
)

// SoftmaxCE computes softmax cross-entropy loss and its gradient for
// binary classification with two logits per row (class 0 = non-hotspot,
// class 1 = hotspot).
//
// BiasEps implements the biased-learning scheme of the hotspot CNN
// literature: non-hotspot targets are relaxed from (1, 0) to
// (1-eps, eps), shifting the learned decision boundary away from the
// hotspot class so that borderline patterns are still flagged. Hotspot
// targets stay hard at (0, 1).
type SoftmaxCE struct {
	// BiasEps in [0, 0.5); 0 disables biased learning.
	BiasEps float64
}

// Loss returns the mean cross-entropy over the batch, the gradient with
// respect to the logits, and the number of correct argmax predictions.
func (l SoftmaxCE) Loss(logits *tensor.Matrix, y []int) (float64, *tensor.Matrix, int) {
	probs := logits.Clone()
	probs.SoftmaxRows()
	grad := tensor.NewMatrix(logits.Rows, logits.Cols)
	var loss float64
	correct := 0
	invN := 1 / float64(logits.Rows)
	for i := 0; i < logits.Rows; i++ {
		p := probs.Row(i)
		g := grad.Row(i)
		t0, t1 := 1.0, 0.0
		if y[i] == 1 {
			t0, t1 = 0, 1
		} else if l.BiasEps > 0 {
			t0, t1 = 1-l.BiasEps, l.BiasEps
		}
		loss -= (t0*math.Log(math.Max(p[0], 1e-15)) + t1*math.Log(math.Max(p[1], 1e-15))) * invN
		g[0] = (p[0] - t0) * invN
		g[1] = (p[1] - t1) * invN
		pred := 0
		if p[1] > p[0] {
			pred = 1
		}
		if pred == y[i] {
			correct++
		}
	}
	return loss, grad, correct
}
