package core

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"github.com/golitho/hsd/internal/boost"
	"github.com/golitho/hsd/internal/dtree"
	"github.com/golitho/hsd/internal/features"
	"github.com/golitho/hsd/internal/logreg"
	"github.com/golitho/hsd/internal/svm"
)

// updateShallowGolden rewrites testdata/shallow_golden.json from the
// running code. The committed file was written at the commit where the
// four classical learners were still four detector types with their own
// Score bodies; regenerating it later defeats its purpose, which is to
// pin their scores across the merge into FeatureDetector.
var updateShallowGolden = flag.Bool("update-shallow-golden", false, "rewrite the shallow-detector golden (see comment)")

const shallowGoldenPath = "testdata/shallow_golden.json"

// shallowZoo is the survey zoo's four classical learners (zoo.go's
// configurations at seed 1; logistic regression is not a zoo row and
// takes the facade test's configuration) over the zoo's shallow feature
// view.
func shallowZoo() []Detector {
	ex := func() features.Extractor {
		return features.NewConcat(&features.GeomStats{}, &features.Density{Grid: 32},
			&features.CCAS{Rings: 8, Sectors: 12})
	}
	return []Detector{
		NewSVMDetector(ex(), svm.Config{Kernel: svm.Linear{}, C: 1, PosWeight: 8, Seed: 1, MaxIter: 120}),
		NewBoostDetector(ex(), boost.Config{Rounds: 150, ClassBalance: true}),
		NewForestDetector(ex(), dtree.ForestConfig{
			Trees: 60, Seed: 1, ClassBalance: true, Tree: dtree.TreeConfig{MaxDepth: 10}}),
		NewLogRegDetector(ex(), logreg.Config{Epochs: 120, LR: 0.3, PosWeight: 4, Seed: 5}),
	}
}

// TestShallowGolden fits each classical learner on the tiny suite's
// training split and demands, for every test clip, the exact score bits
// the four separate detector types produced, through Score and through
// ScoreClipCtx alike.
func TestShallowGolden(t *testing.T) {
	train, test := tinySplits(t)
	got := map[string][]string{}
	for _, det := range shallowZoo() {
		if err := det.Fit(train); err != nil {
			t.Fatalf("%s: %v", det.Name(), err)
		}
		bits := make([]string, len(test))
		for i, s := range test {
			plain, err := det.Score(s.Clip)
			if err != nil {
				t.Fatalf("%s clip %d: %v", det.Name(), i, err)
			}
			viaCtx, err := ScoreClipCtx(context.Background(), det, s.Clip)
			if err != nil {
				t.Fatalf("%s clip %d: %v", det.Name(), i, err)
			}
			if math.Float64bits(plain) != math.Float64bits(viaCtx) {
				t.Fatalf("%s clip %d: Score %v, ScoreClipCtx %v", det.Name(), i, plain, viaCtx)
			}
			bits[i] = fmt.Sprintf("%016x", math.Float64bits(plain))
		}
		got[det.Name()] = bits
	}
	if *updateShallowGolden {
		b, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(shallowGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(shallowGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d detectors, want %d", len(want), len(got))
	}
	for name, bits := range got {
		w := want[name]
		if len(w) != len(bits) {
			t.Fatalf("%s: golden has %d scores, want %d", name, len(w), len(bits))
		}
		distinct := map[string]bool{}
		for i := range bits {
			if bits[i] != w[i] {
				t.Errorf("%s clip %d: score bits %s, parent commit %s", name, i, bits[i], w[i])
			}
			distinct[w[i]] = true
		}
		if len(distinct) < 4 {
			t.Fatalf("%s: golden has only %d distinct scores: the fixture is degenerate", name, len(distinct))
		}
	}
}
