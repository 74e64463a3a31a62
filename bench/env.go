package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	hsd "github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/layout"
)

// Window geometry shared by the suite, the scans and the server.
const (
	clipNM   = 1024
	coreFrac = 0.5
)

// scratchRoot holds journals, WALs and model files. It lives in the
// working directory because the benchmark may write only inside its
// checkout, and so that fsyncs hit the same filesystem as the program.
const scratchRoot = ".bench_tmp"

// workers is the one sizing knob: scan workers, HTTP clients, kernel
// workers and verification goroutines all use it.
func workers() int {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

// env is what every workload's set-up starts from: the seeded suite and
// the zoo's CNN-biased detector fitted on S1, as the CLIs would have it.
type env struct {
	seed      int64
	suite     *hsd.Suite
	spec      hsd.DetectorSpec
	cnn       *hsd.NeuralDetector
	baseTrain []hsd.LabeledClip // S1 train, before augmentation
	test      []hsd.LabeledClip // S1 + S2 test, suite order
	dir       string            // scratch directory, removed by close

	suiteGen, fit time.Duration
}

func newEnv(seed int64) (*env, error) {
	e := &env{seed: seed}
	t0 := time.Now()
	suite, err := hsd.GenerateSuite(hsd.SmallSuiteConfig(seed))
	if err != nil {
		return nil, fmt.Errorf("generate suite: %w", err)
	}
	e.suite, e.suiteGen = suite, time.Since(t0)

	for _, s := range hsd.SurveyZoo(seed) {
		if s.Name == "CNN-biased" {
			e.spec = s
		}
	}
	if e.spec.New == nil {
		return nil, fmt.Errorf("CNN-biased is not in the zoo")
	}
	s1 := &suite.Benchmarks[0]
	e.baseTrain = hsd.FromSamples(s1.Train.Samples)
	for i := range suite.Benchmarks {
		e.test = append(e.test, hsd.FromSamples(suite.Benchmarks[i].Test.Samples)...)
	}
	t0 = time.Now()
	e.cnn = e.spec.New().(*hsd.NeuralDetector)
	if err := e.cnn.Fit(hsd.AugmentMinority(e.baseTrain, e.spec.Augment)); err != nil {
		return nil, fmt.Errorf("fit %s: %w", e.spec.Name, err)
	}
	e.fit = time.Since(t0)

	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	if e.dir, err = os.MkdirTemp(scratchRoot, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) close() {
	os.RemoveAll(e.dir)
	os.Remove(scratchRoot) // only succeeds once the last run is gone
}

// gltBody serializes a clip the way a client of hsdserve would post it.
func gltBody(clip layout.Clip) ([]byte, error) {
	l := layout.New("clip")
	for _, s := range clip.Shapes {
		if err := l.AddRect(s); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if err := layout.Write(&buf, l); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// servedClip reproduces what the server scores for a posted body: the
// layout is parsed and a window is centred on the shapes' bounding box
// (not on the original clip window, which GLT does not carry).
func servedClip(body []byte) (layout.Clip, error) {
	l, err := layout.Read(bytes.NewReader(body))
	if err != nil {
		return layout.Clip{}, err
	}
	return l.ClipAt(l.Bounds().Center(), clipNM, coreFrac)
}
