// Package metrics implements the evaluation measures of the ICCAD 2012
// hotspot-detection protocol (accuracy = hotspot recall, false-alarm
// count) plus the standard classification metrics (precision, F1, ROC,
// AUC) the later literature reports.
package metrics

import (
	"fmt"
	"sort"
)

// Confusion is a binary confusion matrix; "positive" means hotspot.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one prediction.
func (c *Confusion) Add(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && !actual:
		c.TN++
	default:
		c.FN++
	}
}

// Accuracy is the contest "accuracy": detected hotspots over actual
// hotspots (recall). Returns 1 when there are no hotspots.
func (c *Confusion) Accuracy() float64 {
	if c.TP+c.FN == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// FalseAlarms is the contest false-alarm count: non-hotspots flagged.
func (c *Confusion) FalseAlarms() int { return c.FP }

// Precision is TP / (TP + FP); 1 when nothing was flagged.
func (c *Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is an alias of Accuracy.
func (c *Confusion) Recall() float64 { return c.Accuracy() }

// FPR is FP / (FP + TN); 0 when there are no negatives.
func (c *Confusion) FPR() float64 {
	if c.FP+c.TN == 0 {
		return 0
	}
	return float64(c.FP) / float64(c.FP+c.TN)
}

// F1 is the harmonic mean of precision and recall.
func (c *Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the matrix compactly.
func (c *Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d acc=%.3f fa=%d",
		c.TP, c.FP, c.TN, c.FN, c.Accuracy(), c.FalseAlarms())
}

// ROCPoint is one operating point of a score threshold sweep.
type ROCPoint struct {
	Threshold float64
	TPR, FPR  float64
}

// ROC computes the ROC curve of scores (higher = more hotspot-like)
// against binary labels, and the area under it. Points are ordered by
// increasing FPR. It returns an error on length mismatch or degenerate
// label sets.
func ROC(scores []float64, labels []int) ([]ROCPoint, float64, error) {
	if len(scores) != len(labels) {
		return nil, 0, fmt.Errorf("metrics: %d scores vs %d labels", len(scores), len(labels))
	}
	pos, neg := 0, 0
	for _, l := range labels {
		switch l {
		case 1:
			pos++
		case 0:
			neg++
		default:
			return nil, 0, fmt.Errorf("metrics: label %d (want 0/1)", l)
		}
	}
	if pos == 0 || neg == 0 {
		return nil, 0, fmt.Errorf("metrics: ROC needs both classes (%d pos, %d neg)", pos, neg)
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })

	var points []ROCPoint
	points = append(points, ROCPoint{Threshold: scores[idx[0]] + 1, TPR: 0, FPR: 0})
	tp, fp := 0, 0
	var auc float64
	i := 0
	for i < len(idx) {
		// Process ties together.
		j := i
		for j < len(idx) && scores[idx[j]] == scores[idx[i]] {
			if labels[idx[j]] == 1 {
				tp++
			} else {
				fp++
			}
			j++
		}
		prev := points[len(points)-1]
		pt := ROCPoint{
			Threshold: scores[idx[i]],
			TPR:       float64(tp) / float64(pos),
			FPR:       float64(fp) / float64(neg),
		}
		// Trapezoidal area increment.
		auc += (pt.FPR - prev.FPR) * (pt.TPR + prev.TPR) / 2
		points = append(points, pt)
		i = j
	}
	return points, auc, nil
}
