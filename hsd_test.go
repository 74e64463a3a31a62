package hsd

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/golitho/hsd/internal/layout"
)

// The facade tests share one small generated suite.
var (
	facadeOnce  sync.Once
	facadeSuite *Suite
	facadeErr   error
)

// scored is how many clips an evaluation's confusion matrix counts.
func scored(r EvalResult) int {
	c := r.Confusion
	return c.TP + c.FP + c.TN + c.FN
}

func facadeBenchmark(t *testing.T) Benchmark {
	t.Helper()
	facadeOnce.Do(func() {
		cfg := SmallSuiteConfig(2024)
		cfg.Specs = []BenchmarkSpec{{
			Name:    "F1",
			Style:   DefaultPatternStyle(),
			TrainHS: 15, TrainNHS: 60,
			TestHS: 10, TestNHS: 40,
		}}
		facadeSuite, facadeErr = GenerateSuite(cfg)
	})
	if facadeErr != nil {
		t.Fatal(facadeErr)
	}
	return facadeSuite.Benchmarks[0]
}

func TestFacadeQuickstart(t *testing.T) {
	b := facadeBenchmark(t)
	train, test := FromSamples(b.Train.Samples), FromSamples(b.Test.Samples)
	det := StandardAdaBoost()
	res, err := Evaluate(det, b.Name, train, test, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := scored(res); n != len(test) {
		t.Fatalf("scored %d of %d clips", n, len(test))
	}
	if res.AUC <= 0.5 {
		t.Fatalf("AUC = %v, want better than chance", res.AUC)
	}
	pts, auc, err := ROC(res.Scores, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 || auc != res.AUC {
		t.Fatalf("ROC inconsistent with Evaluate: %v vs %v", auc, res.AUC)
	}
}

func TestFacadeOracle(t *testing.T) {
	sim, err := NewSimulator(DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := facadeBenchmark(t)
	// Oracle verdicts must agree with the generator labels (same oracle).
	for i, s := range b.Test.Samples[:10] {
		res, err := sim.Simulate(s.Clip)
		if err != nil {
			t.Fatal(err)
		}
		if res.Hotspot != s.Hotspot {
			t.Fatalf("sample %d: oracle says %v, label says %v", i, res.Hotspot, s.Hotspot)
		}
	}
}

func TestZooSpecs(t *testing.T) {
	zoo := SurveyZoo(1)
	if len(zoo) < 6 {
		t.Fatalf("zoo has %d specs", len(zoo))
	}
	seen := map[string]bool{}
	deep := 0
	for _, spec := range zoo {
		if spec.Name == "" || spec.New == nil {
			t.Fatalf("malformed spec %+v", spec)
		}
		if seen[spec.Name] {
			t.Fatalf("duplicate zoo name %q", spec.Name)
		}
		seen[spec.Name] = true
		if spec.Deep {
			deep++
		}
		if d := spec.New(); d == nil || d.Name() == "" {
			t.Fatalf("spec %q builds a bad detector", spec.Name)
		}
	}
	if deep == 0 {
		t.Fatal("zoo has no deep detectors")
	}
}

func TestFacadeScan(t *testing.T) {
	b := facadeBenchmark(t)
	det := standardFuzzyPM()
	if err := det.Fit(FromSamples(b.Train.Samples)); err != nil {
		t.Fatal(err)
	}
	chip, err := GenerateChip(9, 8192, DefaultPatternStyle())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ScanFarm(context.Background(), chip, det, ScanFarmConfig{Workers: 4, SkipEmpty: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) > 0 {
		t.Fatalf("quarantined shards: %+v", res.Quarantined)
	}
	for _, f := range res.Findings {
		if !f.Center.In(R(-1024, -1024, 8192+1024, 8192+1024)) {
			t.Fatalf("finding outside chip: %v", f.Center)
		}
	}
}

func TestFacadeLayoutIO(t *testing.T) {
	l := NewLayout("io")
	if err := l.AddRect(R(0, 0, 100, 50)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLayout(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLayout(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumShapes() != 1 {
		t.Fatalf("round trip lost shapes: %d", got.NumShapes())
	}
}

func TestSaveNetworkRequiresFit(t *testing.T) {
	det := StandardCNN(1, 0, "cnn")
	path := filepath.Join(t.TempDir(), "cnn.net")
	if err := SaveNetworkFile(path, det); err == nil {
		t.Fatal("unfitted network saved")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("refused save left a file behind: %v", err)
	}
}

// TestSurveyShape is the package's end-to-end sanity check: on a medium
// benchmark, learned detectors must beat chance, pattern matching must
// stay false-alarm-free, and biased learning must raise CNN recall.
// Skipped under -short (it trains every detector in the zoo).
func TestSurveyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the full zoo; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("trains the full zoo; too slow under the race detector")
	}
	cfg := SmallSuiteConfig(77)
	cfg.Specs = []BenchmarkSpec{{
		Name: "M1", Style: DefaultPatternStyle(),
		TrainHS: 80, TrainNHS: 400, TestHS: 50, TestNHS: 400,
	}}
	suite, err := GenerateSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := suite.Benchmarks[0]
	train, test := FromSamples(b.Train.Samples), FromSamples(b.Test.Samples)

	results := map[string]EvalResult{}
	for _, spec := range SurveyZoo(1) {
		res, err := Evaluate(spec.New(), b.Name, train, test, EvalOptions{Augment: spec.Augment})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		results[spec.Name] = res
		t.Logf("%-12s acc=%.3f fa=%d auc=%.3f", spec.Name, res.Accuracy(), res.FalseAlarms(), res.AUC)
	}

	if fa := results["PM-exact"].FalseAlarms(); fa != 0 {
		t.Errorf("exact pattern matching produced %d false alarms", fa)
	}
	for _, name := range []string{"SVM", "AdaBoost", "MLP", "CNN", "CNN-biased"} {
		if auc := results[name].AUC; auc < 0.6 {
			t.Errorf("%s AUC = %v, want >= 0.6", name, auc)
		}
	}
	if results["CNN-biased"].Accuracy() <= results["CNN"].Accuracy() {
		t.Errorf("biased learning did not raise recall: %v vs %v",
			results["CNN-biased"].Accuracy(), results["CNN"].Accuracy())
	}
	if results["CNN-biased"].Accuracy() <= results["PM-exact"].Accuracy() {
		t.Error("deep detector did not beat pattern matching on recall")
	}
}

func TestSuiteSaveLoadRoundTrip(t *testing.T) {
	b := facadeBenchmark(t)
	path := filepath.Join(t.TempDir(), "suite.gob")
	if err := SaveSuiteFile(path, facadeSuite); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := LoadSuite(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != len(facadeSuite.Benchmarks) {
		t.Fatal("benchmark count differs after round trip")
	}
	gb := got.Benchmarks[0]
	if len(gb.Train.Samples) != len(b.Train.Samples) {
		t.Fatal("train size differs after round trip")
	}
	for i, s := range gb.Train.Samples {
		orig := b.Train.Samples[i]
		if s.Hotspot != orig.Hotspot || s.Family != orig.Family ||
			len(s.Clip.Shapes) != len(orig.Clip.Shapes) {
			t.Fatalf("sample %d differs after round trip", i)
		}
	}
}

func TestLoadSuiteRejectsGarbage(t *testing.T) {
	if _, err := LoadSuite(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestFacadeRasterizeAndAerial(t *testing.T) {
	l := NewLayout("r")
	if err := l.AddRect(R(0, 448, 1024, 576)); err != nil {
		t.Fatal(err)
	}
	clip, err := l.ClipAt(Pt(512, 512), 1024, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	im, err := RasterizeClip(clip, 8)
	if err != nil {
		t.Fatal(err)
	}
	if im.W != 128 || im.H != 128 {
		t.Fatalf("raster dims = %dx%d", im.W, im.H)
	}
	sim, err := NewSimulator(DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	aer := sim.AerialImage(im)
	if v := aer.At(64, 64); v < 0.9 {
		t.Fatalf("interior aerial intensity = %v", v)
	}
	if _, err := RasterizeClip(layout.Clip{}, 8); err == nil {
		t.Fatal("empty clip rasterized")
	}
}

func TestFacadeGDSIIRoundTrip(t *testing.T) {
	l := NewLayout("gds")
	if err := l.AddRect(R(100, 200, 300, 400)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGDSII(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGDSII(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumShapes() != 1 {
		t.Fatalf("shapes = %d", got.NumShapes())
	}
}
