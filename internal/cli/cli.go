// Package cli is the one place a binary turns -suite/-bench/-detector/
// -seed into a fitted detector. hsdtrain, hsdeval, hsdscan, hsdserve
// and hsdlearn register their own flags (names, defaults and help text
// are theirs) and call in here for every decision those flags imply, so
// a typo is refused with the same message everywhere. It also writes
// the -trace file of hsdscan and hsdeval.
package cli

import (
	"fmt"
	"os"
	"strings"
	"time"

	hsd "github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/telemetry"
	"github.com/golitho/hsd/internal/trace"
)

// Version is the line -version prints: the hotspot_build_info fields.
func Version(name string) string {
	goVersion, revision := telemetry.BuildInfo()
	return fmt.Sprintf("%s go_version=%s revision=%s", name, goVersion, revision)
}

// LoadBenchmark reads the suite file at path and picks the benchmark
// called name; an empty name picks the first.
func LoadBenchmark(path, name string) (*hsd.Suite, *hsd.Benchmark, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	suite, err := hsd.LoadSuite(f)
	if err != nil {
		return nil, nil, err
	}
	for i := range suite.Benchmarks {
		if name == "" || suite.Benchmarks[i].Name == name {
			return suite, &suite.Benchmarks[i], nil
		}
	}
	return nil, nil, fmt.Errorf("benchmark %q not found", name)
}

// Spec looks name up in the survey zoo, ignoring case.
func Spec(seed int64, name string) (hsd.DetectorSpec, error) {
	zoo := hsd.SurveyZoo(seed)
	names := make([]string, len(zoo))
	for i, s := range zoo {
		if strings.EqualFold(s.Name, name) {
			return s, nil
		}
		names[i] = s.Name
	}
	return hsd.DetectorSpec{}, fmt.Errorf("detector %q not in zoo (have: %s)", name, strings.Join(names, ", "))
}

// Train builds spec's detector, runs configure on it before Fit (nil
// for none), and fits it on bench's augmented training split. It
// returns the fit's wall time for the caller's own log line.
func Train(spec hsd.DetectorSpec, bench *hsd.Benchmark, configure func(hsd.Detector) error) (hsd.Detector, time.Duration, error) {
	det := spec.New()
	if configure != nil {
		if err := configure(det); err != nil {
			return nil, 0, err
		}
	}
	t0 := time.Now()
	train := hsd.AugmentMinority(hsd.FromSamples(bench.Train.Samples), spec.Augment)
	if err := det.Fit(train); err != nil {
		return nil, 0, err
	}
	return det, time.Since(t0), nil
}

// goldenSize is how many clips the reload and ship gates score.
const goldenSize = 64

// GoldenSet picks the first goldenSize clips of bench's test split for
// the reload and ship gates, interleaving the classes so both recalls
// and false-alarm rates are measured. The clips are not held out: they
// are the test split's first hotspots and non-hotspots, and hsdlearn
// mines that same split.
func GoldenSet(bench *hsd.Benchmark) []hsd.LabeledClip {
	var hot, cold []hsd.LabeledClip
	for _, s := range hsd.FromSamples(bench.Test.Samples) {
		if s.Hotspot {
			hot = append(hot, s)
		} else {
			cold = append(cold, s)
		}
	}
	out := make([]hsd.LabeledClip, 0, goldenSize)
	for i := 0; len(out) < goldenSize && (i < len(hot) || i < len(cold)); i++ {
		if i < len(hot) {
			out = append(out, hot[i])
		}
		if len(out) < goldenSize && i < len(cold) {
			out = append(out, cold[i])
		}
	}
	return out
}

// NetworkLoader is the gate's model loader for a neural detector: the
// weights come from the file, the feature pipeline, scaler and
// threshold from nd.
func NetworkLoader(nd *hsd.NeuralDetector) func(path string) (hsd.Detector, error) {
	return func(path string) (hsd.Detector, error) {
		net, err := nn.LoadFile(path)
		if err != nil {
			return nil, err
		}
		return nd.WithNetwork(net)
	}
}

// WriteChromeTrace writes every trace tracer retained to path as one
// Chrome trace_event JSON file, and returns how many it wrote.
func WriteChromeTrace(path string, tracer *trace.Tracer) (int, error) {
	traces := tracer.Traces(0)
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := trace.WriteChrome(f, traces); err != nil {
		f.Close()
		return 0, err
	}
	return len(traces), f.Close()
}
