package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	hsd "github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/scanfarm"
)

var (
	onceSuite sync.Once
	suite     *hsd.Suite
	suiteErr  error
)

func testSuite(t *testing.T) *hsd.Suite {
	t.Helper()
	onceSuite.Do(func() {
		cfg := hsd.SmallSuiteConfig(31)
		cfg.Specs = []hsd.BenchmarkSpec{
			{Name: "E1", Style: hsd.DefaultPatternStyle(),
				TrainHS: 10, TrainNHS: 40, TestHS: 6, TestNHS: 25},
			{Name: "E2", Style: hsd.DefaultPatternStyle(),
				TrainHS: 8, TrainNHS: 30, TestHS: 5, TestNHS: 20},
		}
		suite, suiteErr = hsd.GenerateSuite(cfg)
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suite
}

// cheapSpecs is the zoo's exact pattern matcher and AdaBoost, the two
// rows that fit in milliseconds.
func cheapSpecs() []hsd.DetectorSpec {
	var pm hsd.DetectorSpec
	for _, spec := range hsd.SurveyZoo(1) {
		if spec.Name == "PM-exact" {
			pm = spec
		}
	}
	return []hsd.DetectorSpec{
		{Name: "PM", New: pm.New},
		{Name: "Boost", New: hsd.StandardAdaBoost, Deep: true}, // abuse Deep for split test
	}
}

func TestTableString(t *testing.T) {
	tbl := Table{
		Title:  "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"1", "2"}, {"333333", "4"}},
	}
	s := tbl.String()
	if !strings.Contains(s, "== demo ==") || !strings.Contains(s, "long-header") {
		t.Fatalf("bad render:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 {
		t.Fatalf("line count = %d", len(lines))
	}
}

func TestBenchStats(t *testing.T) {
	s := testSuite(t)
	tbl := BenchStats(s)
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][1] != "10" || tbl.Rows[0][2] != "40" {
		t.Fatalf("row = %v", tbl.Rows[0])
	}
}

func TestRunZooAndDerivedTables(t *testing.T) {
	s := testSuite(t)
	results, err := RunZooCtx(context.Background(), s, cheapSpecs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || len(results[0].Results) != 2 {
		t.Fatalf("result shape wrong: %d specs", len(results))
	}
	tbl := DetectorTable("Table II test", s, results)
	if len(tbl.Rows) != 2 {
		t.Fatalf("detector table rows = %d", len(tbl.Rows))
	}
	sum := Summary(results)
	if len(sum.Rows) != 2 {
		t.Fatalf("summary rows = %d", len(sum.Rows))
	}
	roc, err := ROCFig(s, "E1", results)
	if err != nil {
		t.Fatal(err)
	}
	if len(roc.Rows) != 2 {
		t.Fatalf("roc rows = %d", len(roc.Rows))
	}
	if _, err := ROCFig(s, "NOPE", results); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestSplitZoo(t *testing.T) {
	specs := cheapSpecs()
	// A deep row ahead of a shallow one: the split follows Spec.Deep,
	// not zoo position.
	results := []DetectorResults{{Spec: specs[1]}, {Spec: specs[0]}, {Spec: specs[1]}}
	shallow, deep := SplitZoo(results)
	if len(shallow) != 1 || len(deep) != 2 {
		t.Fatalf("split = %d/%d", len(shallow), len(deep))
	}
	if shallow[0].Spec.Name != "PM" || deep[0].Spec.Name != "Boost" || deep[1].Spec.Name != "Boost" {
		t.Fatalf("split = %s / %s, %s", shallow[0].Spec.Name, deep[0].Spec.Name, deep[1].Spec.Name)
	}
}

func TestFeatureAblation(t *testing.T) {
	s := testSuite(t)
	tbl, err := FeatureAblation(s, "E1")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("ablation rows = %d", len(tbl.Rows))
	}
}

func TestTprAt(t *testing.T) {
	pts := []hsd.ROCPoint{
		{FPR: 0, TPR: 0}, {FPR: 0.05, TPR: 0.5}, {FPR: 0.3, TPR: 0.9}, {FPR: 1, TPR: 1},
	}
	if got := tprAt(pts, 0.1); got != 0.5 {
		t.Fatalf("tprAt(0.1) = %v", got)
	}
	if got := tprAt(pts, 1); got != 1 {
		t.Fatalf("tprAt(1) = %v", got)
	}
	if got := tprAt(pts, 0.001); got != 0 {
		t.Fatalf("tprAt(0.001) = %v", got)
	}
}

func TestFindBenchErrors(t *testing.T) {
	s := testSuite(t)
	if _, err := findBench(s, "missing"); err == nil {
		t.Fatal("missing benchmark accepted")
	}
	if _, err := BiasSweep(s, "missing", 1, []float64{0}); err == nil {
		t.Fatal("bias sweep on missing benchmark accepted")
	}
	if _, err := Convergence(s, "missing", 1); err == nil {
		t.Fatal("convergence on missing benchmark accepted")
	}
}

// TestODSTScalingCountsPlannedWindows: Fig. 5's windows column, the
// count its full-simulation column is extrapolated from, is the number
// of windows the scan's plan holds for the chip, not a grid guessed
// from the chip's edge.
func TestODSTScalingCountsPlannedWindows(t *testing.T) {
	const seed, edge = 5, 4096
	tbl, err := ODSTScaling(testSuite(t), seed, []int{edge})
	if err != nil {
		t.Fatal(err)
	}
	chip, err := hsd.GenerateChip(seed, edge, hsd.DefaultPatternStyle())
	if err != nil {
		t.Fatal(err)
	}
	want := scanfarm.NewPlan(chip.Bounds(), hsd.ScanFarmConfig{SkipEmpty: true}).Windows()
	if len(tbl.Rows) != 1 || tbl.Rows[0][1] != fmt.Sprint(want) {
		t.Fatalf("Fig. 5 rows %q, want one row of %d windows", tbl.Rows, want)
	}
}
