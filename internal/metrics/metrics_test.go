package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfusionCounts(t *testing.T) {
	var c Confusion
	c.Add(true, true)   // TP
	c.Add(true, false)  // FP
	c.Add(false, false) // TN
	c.Add(false, true)  // FN
	c.Add(true, true)   // TP
	if c.TP != 2 || c.FP != 1 || c.TN != 1 || c.FN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	if n := c.TP + c.FP + c.TN + c.FN; n != 5 {
		t.Fatalf("%d samples recorded, want 5", n)
	}
	if got := c.Accuracy(); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("Accuracy = %v", got)
	}
	if c.FalseAlarms() != 1 {
		t.Fatalf("FalseAlarms = %d", c.FalseAlarms())
	}
	if got := c.Precision(); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("Precision = %v", got)
	}
	if got := c.FPR(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("FPR = %v", got)
	}
	if c.String() == "" {
		t.Fatal("empty String")
	}
}

func TestConfusionDegenerate(t *testing.T) {
	var c Confusion
	if c.Accuracy() != 1 || c.Precision() != 1 || c.FPR() != 0 {
		t.Fatal("degenerate confusion should be lenient")
	}
	if c.F1() != 1 {
		// precision=1, recall=1 when nothing recorded
		t.Fatalf("degenerate F1 = %v", c.F1())
	}
}

func TestF1(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, FN: 2}
	// precision = 0.8, recall = 0.8, F1 = 0.8
	if math.Abs(c.F1()-0.8) > 1e-12 {
		t.Fatalf("F1 = %v", c.F1())
	}
}

func TestROCPerfectClassifier(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []int{1, 1, 0, 0}
	pts, auc, err := ROC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-1) > 1e-12 {
		t.Fatalf("perfect AUC = %v", auc)
	}
	last := pts[len(pts)-1]
	if last.TPR != 1 || last.FPR != 1 {
		t.Fatalf("curve does not end at (1,1): %+v", last)
	}
	if pts[0].TPR != 0 || pts[0].FPR != 0 {
		t.Fatalf("curve does not start at (0,0): %+v", pts[0])
	}
}

func TestROCAntiClassifier(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []int{1, 1, 0, 0}
	_, auc, err := ROC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc) > 1e-12 {
		t.Fatalf("inverted AUC = %v, want 0", auc)
	}
}

func TestROCRandomIsHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 4000
	scores := make([]float64, n)
	labels := make([]int, n)
	for i := range scores {
		scores[i] = rng.Float64()
		labels[i] = rng.Intn(2)
	}
	_, auc, err := ROC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.5) > 0.03 {
		t.Fatalf("random AUC = %v, want ~0.5", auc)
	}
}

func TestROCTiesHandled(t *testing.T) {
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	labels := []int{1, 0, 1, 0}
	_, auc, err := ROC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.5) > 1e-12 {
		t.Fatalf("all-ties AUC = %v, want 0.5", auc)
	}
}

func TestROCValidation(t *testing.T) {
	if _, _, err := ROC([]float64{1}, []int{1, 0}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, _, err := ROC([]float64{1, 2}, []int{1, 1}); err == nil {
		t.Fatal("single-class accepted")
	}
	if _, _, err := ROC([]float64{1, 2}, []int{1, 5}); err == nil {
		t.Fatal("bad label accepted")
	}
}

func TestROCAUCInUnitInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		n := 10 + rng.Intn(100)
		scores := make([]float64, n)
		labels := make([]int, n)
		labels[0], labels[1] = 0, 1 // guarantee both classes
		for i := range scores {
			scores[i] = rng.NormFloat64()
			if i >= 2 {
				labels[i] = rng.Intn(2)
			}
		}
		_, auc, err := ROC(scores, labels)
		if err != nil {
			return false
		}
		return auc >= -1e-12 && auc <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestROCMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 200
	scores := make([]float64, n)
	labels := make([]int, n)
	labels[0], labels[1] = 0, 1
	for i := range scores {
		scores[i] = rng.NormFloat64()
		if i >= 2 {
			labels[i] = rng.Intn(2)
		}
	}
	pts, _, err := ROC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].FPR < pts[i-1].FPR-1e-12 || pts[i].TPR < pts[i-1].TPR-1e-12 {
			t.Fatalf("ROC not monotone at %d: %+v -> %+v", i, pts[i-1], pts[i])
		}
	}
}
