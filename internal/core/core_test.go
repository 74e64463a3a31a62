package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/golitho/hsd/internal/boost"
	"github.com/golitho/hsd/internal/features"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/iccad"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/lithosim"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/pm"
	"github.com/golitho/hsd/internal/svm"
)

// tinySuite is generated once and shared by the package tests.
var (
	tinyOnce  sync.Once
	tinySuite *iccad.Suite
	tinyErr   error
)

func getTinySuite(t *testing.T) *iccad.Suite {
	t.Helper()
	tinyOnce.Do(func() {
		cfg := iccad.SmallSuiteConfig(404)
		cfg.Specs = []iccad.Spec{{
			Name:    "T1",
			Style:   cfg.Specs[0].Style,
			TrainHS: 12, TrainNHS: 40,
			TestHS: 8, TestNHS: 30,
		}}
		tinySuite, tinyErr = iccad.GenerateSuite(cfg)
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinySuite
}

func tinySplits(t *testing.T) (train, test []LabeledClip) {
	s := getTinySuite(t)
	return FromSamples(s.Benchmarks[0].Train.Samples), FromSamples(s.Benchmarks[0].Test.Samples)
}

func TestAugmentMinority(t *testing.T) {
	train, _ := tinySplits(t)
	hs := 0
	for _, s := range train {
		if s.Hotspot {
			hs++
		}
	}
	aug := AugmentMinority(train, AugmentConfig{UpsampleFactor: 3})
	wantLen := len(train) + 2*hs
	if len(aug) != wantLen {
		t.Fatalf("upsampled length = %d, want %d", len(aug), wantLen)
	}
	for _, s := range aug[len(train):] {
		if !s.Hotspot {
			t.Fatal("augmentation produced a non-hotspot")
		}
	}

	augM := AugmentMinority(train, AugmentConfig{Mirror: true})
	if len(augM) != len(train)+2*hs {
		t.Fatalf("mirror length = %d, want %d", len(augM), len(train)+2*hs)
	}
	// No-op config returns an equal copy.
	same := AugmentMinority(train, AugmentConfig{})
	if len(same) != len(train) {
		t.Fatalf("no-op augmentation changed length: %d", len(same))
	}
}

func TestScaler(t *testing.T) {
	x := [][]float64{{1, 10, 5}, {3, 10, 7}, {5, 10, 9}}
	s := fitScaler(x)
	out := s.applyAll(x)
	for j := 0; j < 3; j++ {
		var mean, varr float64
		for i := range out {
			mean += out[i][j]
		}
		mean /= 3
		for i := range out {
			d := out[i][j] - mean
			varr += d * d
		}
		varr /= 3
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("col %d mean = %v", j, mean)
		}
		if j != 1 && math.Abs(varr-1) > 1e-9 {
			t.Fatalf("col %d var = %v", j, varr)
		}
	}
	// Constant column passes through centred but unscaled.
	if out[0][1] != 0 {
		t.Fatalf("constant column = %v", out[0][1])
	}
}

// scored is how many clips an evaluation's confusion matrix counts.
func scored(r Result) int {
	c := r.Confusion
	return c.TP + c.FP + c.TN + c.FN
}

func TestPMDetectorEvaluate(t *testing.T) {
	train, test := tinySplits(t)
	det := NewPMDetector(pm.Config{GridPx: 32, Tol: 30, Mirror: true})
	res, err := Evaluate(det, "T1", train, test, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := scored(res); n != len(test) {
		t.Fatalf("scored %d of %d", n, len(test))
	}
	// Pattern matching should rarely false-alarm.
	if res.FalseAlarms() > len(test)/4 {
		t.Fatalf("pm false alarms = %d", res.FalseAlarms())
	}
	// Training hotspots must match themselves.
	selfTP := 0
	for _, s := range train {
		if !s.Hotspot {
			continue
		}
		ok, err := Predict(det, s.Clip)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			selfTP++
		}
	}
	if selfTP == 0 {
		t.Fatal("pm missed every training hotspot")
	}
}

func TestSVMDetectorEvaluate(t *testing.T) {
	train, test := tinySplits(t)
	det := NewSVMDetector(
		&features.GeomStats{},
		svm.Config{Kernel: svm.Linear{}, C: 1, PosWeight: 4, Seed: 1},
	)
	res, err := Evaluate(det, "T1", train, test, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AUC < 0.55 {
		t.Fatalf("svm AUC = %v, want better than chance", res.AUC)
	}
}

func TestBoostDetectorEvaluate(t *testing.T) {
	train, test := tinySplits(t)
	det := NewBoostDetector(&features.GeomStats{}, boost.Config{Rounds: 60, ClassBalance: true})
	res, err := Evaluate(det, "T1", train, test, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AUC < 0.55 {
		t.Fatalf("adaboost AUC = %v, want better than chance", res.AUC)
	}
}

func TestCNNDetectorEvaluate(t *testing.T) {
	train, test := tinySplits(t)
	ex := &features.DCT{Blocks: 8, Coefs: 8}
	det := NewCNNDetector(ex,
		nn.CNNConfig{Conv1: 8, Conv2: 8, Hidden: 16},
		nn.TrainConfig{Epochs: 6, BatchSize: 16, Seed: 2},
		"cnn")
	res, err := Evaluate(det, "T1", train, test, EvalOptions{
		Augment: AugmentConfig{UpsampleFactor: 3, Mirror: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AUC < 0.6 {
		t.Fatalf("cnn AUC = %v, want clearly better than chance", res.AUC)
	}
	if det.History() == nil {
		t.Fatal("missing training history")
	}
}

func TestMLPDetectorEvaluate(t *testing.T) {
	train, test := tinySplits(t)
	det := NewMLPDetector(&features.CCAS{Rings: 8, Sectors: 12}, []int{32},
		nn.TrainConfig{Epochs: 20, BatchSize: 16, Seed: 3})
	res, err := Evaluate(det, "T1", train, test, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AUC < 0.55 {
		t.Fatalf("mlp AUC = %v", res.AUC)
	}
}

// TestWithNetworkRejectsWrongInputWidth: a network built for another
// extractor is refused at load, before any golden set or request sees
// it; one of the right width still swaps in and scores.
func TestWithNetworkRejectsWrongInputWidth(t *testing.T) {
	train, test := tinySplits(t)
	ex := &features.Density{Grid: 8}
	det := NewMLPDetector(ex, []int{4}, nn.TrainConfig{Epochs: 1, BatchSize: 16, Seed: 3})
	if err := det.Fit(train); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	wrong := nn.BuildMLP(ex.Dim()+1, 4)
	wrong.Init(rng)
	if _, err := det.WithNetwork(wrong); err == nil {
		t.Fatalf("network of input width %d accepted for a %d-feature extractor", ex.Dim()+1, ex.Dim())
	}
	right := nn.BuildMLP(ex.Dim(), 4)
	right.Init(rng)
	swapped, err := det.WithNetwork(right)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := swapped.Score(context.Background(), test[0].Clip); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateODST(t *testing.T) {
	train, test := tinySplits(t)
	sim, err := lithosim.New(lithosim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	det := NewBoostDetector(&features.Density{Grid: 16}, boost.Config{Rounds: 30})
	res, err := Evaluate(det, "T1", train, test, EvalOptions{Sim: sim})
	if err != nil {
		t.Fatal(err)
	}
	if res.ODST() <= 0 {
		t.Fatal("ODST not measured")
	}
	if res.FullSimTime <= 0 {
		t.Fatal("full-sim baseline not estimated")
	}
	if res.ODST() >= res.FullSimTime {
		t.Logf("warning: ODST %v >= full sim %v (tiny test set)", res.ODST(), res.FullSimTime)
	}
	if res.Speedup() <= 0 {
		t.Fatal("speedup not computed")
	}
}

func TestEvaluateValidation(t *testing.T) {
	det := NewPMDetector(pm.Config{})
	if _, err := Evaluate(det, "x", nil, nil, EvalOptions{}); err == nil {
		t.Fatal("empty splits accepted")
	}
}

func TestNotFittedErrors(t *testing.T) {
	clip := layout.Clip{Window: geom.R(0, 0, 1024, 1024)}
	for _, det := range []Detector{
		NewPMDetector(pm.Config{}),
		NewSVMDetector(&features.Density{Grid: 8}, svm.Config{}),
		NewBoostDetector(&features.Density{Grid: 8}, boost.Config{}),
		NewMLPDetector(&features.Density{Grid: 8}, []int{4}, nn.TrainConfig{}),
	} {
		if _, err := det.Score(context.Background(), clip); err == nil {
			t.Errorf("%s scored before Fit", det.Name())
		}
	}
}

// stubDetector flags any clip whose shapes overlap Target.
type stubDetector struct {
	Target geom.Rect
}

func (s *stubDetector) Name() string                  { return "stub" }
func (s *stubDetector) Fit(train []LabeledClip) error { return nil }
func (s *stubDetector) Threshold() float64            { return 0.5 }
func (s *stubDetector) Score(_ context.Context, clip layout.Clip) (float64, error) {
	for _, r := range clip.Shapes {
		if r.Overlaps(s.Target) {
			return 1, nil
		}
	}
	return 0, nil
}

func TestScanFindsTarget(t *testing.T) {
	chip := layout.New("chip")
	// Background geometry plus one marked region.
	for y := 0; y < 8192; y += 512 {
		if err := chip.AddRect(geom.R(0, y, 8192, y+96)); err != nil {
			t.Fatal(err)
		}
	}
	target := geom.R(4096, 4096, 4200, 4200)
	if err := chip.AddRect(target); err != nil {
		t.Fatal(err)
	}
	det := &stubDetector{Target: target}
	findings, err := scanAll(chip, det, ScanConfig{ClipNM: 1024, CoreFrac: 0.5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("scan found nothing")
	}
	found := false
	for _, f := range findings {
		win := geom.R(f.Center.X-512, f.Center.Y-512, f.Center.X+512, f.Center.Y+512)
		if win.Overlaps(target) {
			found = true
		}
		if f.Score < det.Threshold() {
			t.Fatal("finding below threshold")
		}
	}
	if !found {
		t.Fatal("no finding near the target region")
	}
	// Deterministic ordering: window enumeration, row-major (Y, then X).
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1].Center, findings[i].Center
		if a.Y > b.Y || (a.Y == b.Y && a.X >= b.X) {
			t.Fatal("findings not in row-major window order")
		}
	}
}

func TestScanEmptyChip(t *testing.T) {
	chip := layout.New("empty")
	findings, err := scanAll(chip, &stubDetector{}, ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if findings != nil {
		t.Fatalf("empty chip produced findings: %v", findings)
	}
}

func TestScanDeterministicAcrossWorkerCounts(t *testing.T) {
	chip := layout.New("chip")
	for y := 0; y < 4096; y += 256 {
		if err := chip.AddRect(geom.R(0, y, 4096, y+96)); err != nil {
			t.Fatal(err)
		}
	}
	det := &stubDetector{Target: geom.R(1000, 1000, 1200, 1200)}
	a, err := scanAll(chip, det, ScanConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := scanAll(chip, det, ScanConfig{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("worker counts disagree: %d vs %d findings", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("finding %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPredictUsesThreshold(t *testing.T) {
	det := &stubDetector{Target: geom.R(0, 0, 10, 10)}
	clip := layout.Clip{
		Window: geom.R(0, 0, 100, 100),
		Shapes: []geom.Rect{geom.R(0, 0, 5, 5)},
	}
	got, err := Predict(det, clip)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("expected positive prediction")
	}
}
