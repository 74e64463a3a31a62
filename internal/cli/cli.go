// Package cli is the one place a binary turns -suite/-bench/-detector/
// -seed/-router-* into a fitted detector. hsdtrain, hsdeval, hsdscan,
// hsdserve and hsdlearn register their own flags (names, defaults and
// help text are theirs) and call in here for every decision those flags
// imply, so a typo is refused with the same message everywhere.
package cli

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	hsd "github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/telemetry"
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

// RouterFlags are the -router-lo/-hi/-eps threshold overrides of the
// routed cascade.
type RouterFlags struct{ lo, hi, eps float64 }

// Register adds the three flags to fs.
func (r *RouterFlags) Register(fs *flag.FlagSet) {
	fs.Float64Var(&r.lo, "router-lo", -1, "router: force the low confidence cut (with -router-hi; Router detector only)")
	fs.Float64Var(&r.hi, "router-hi", -1, "router: force the high confidence cut (with -router-lo; Router detector only)")
	fs.Float64Var(&r.eps, "router-eps", 0, "router: per-stage answered-error budget for band fitting (0 = default)")
}

// Apply forwards the flags onto an unfitted detector. A half-set band is
// refused first, then any flag on a detector that is not a Router; with
// no flag set every detector passes.
func (r *RouterFlags) Apply(det hsd.Detector) error {
	if (r.lo >= 0) != (r.hi >= 0) {
		return fmt.Errorf("-router-lo and -router-hi must be set together")
	}
	if r.lo < 0 && r.eps <= 0 {
		return nil
	}
	rt, ok := det.(*hsd.RouterDetector)
	if !ok {
		return fmt.Errorf("-router-* flags need -detector Router (got %s)", det.Name())
	}
	if r.eps > 0 {
		rt.SetMaxStageError(r.eps)
	}
	if r.lo >= 0 {
		rt.ForceBand(hsd.RouterBand{Lo: r.lo, Hi: r.hi})
	}
	return nil
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

// GoldenSet picks up to n clips from bench's test split for the reload
// and ship gates, interleaving the classes so recall and false-alarm
// deltas are both measurable.
func GoldenSet(bench *hsd.Benchmark, n int) []hsd.LabeledClip {
	if n <= 0 {
		return nil
	}
	var hot, cold []hsd.LabeledClip
	for _, s := range hsd.FromSamples(bench.Test.Samples) {
		if s.Hotspot {
			hot = append(hot, s)
		} else {
			cold = append(cold, s)
		}
	}
	out := make([]hsd.LabeledClip, 0, n)
	for i := 0; len(out) < n && (i < len(hot) || i < len(cold)); i++ {
		if i < len(hot) {
			out = append(out, hot[i])
		}
		if len(out) < n && i < len(cold) {
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

// PrintRouterStats prints a router's per-stage routing breakdown.
func PrintRouterStats(stats []hsd.RouterStageStats) {
	for _, s := range stats {
		fmt.Printf("router stage %-10s answered %6d (hot %5d, cold %6d)  escalated %6d  %8.3fs\n",
			s.Name, s.Answered(), s.AnsweredHot, s.AnsweredCold, s.Escalated, s.Seconds)
	}
}
