package hsd

import (
	"bytes"
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/trace"
)

// reduceEpochs shrinks neural training to a couple of epochs so the
// whole zoo trains within test time; accuracy is not under test here,
// only that every spec's construct/fit/score/persist cycle works.
func reduceEpochs(det Detector) {
	if d, ok := det.(*NeuralDetector); ok {
		d.Cfg.Epochs = 2
	}
}

// TestZooSpecTrainRoundTrip trains every zoo spec on the shared facade
// benchmark, checks it produces finite scores on held-out clips, and for
// neural detectors round-trips the network through Save/Load asserting
// bit-identical scores. TestZooSpecs only checks construction; this is
// the train-path coverage for each DetectorSpec.
func TestZooSpecTrainRoundTrip(t *testing.T) {
	b := facadeBenchmark(t)
	train := FromSamples(b.Train.Samples)
	test := FromSamples(b.Test.Samples)
	if len(test) > 8 {
		test = test[:8]
	}
	for _, spec := range SurveyZoo(5) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			det := spec.New()
			reduceEpochs(det)
			if err := det.Fit(AugmentMinority(train, spec.Augment)); err != nil {
				t.Fatalf("fit: %v", err)
			}
			scores := make([]float64, len(test))
			for i, lc := range test {
				s, err := det.Score(context.Background(), lc.Clip)
				if err != nil {
					t.Fatalf("score clip %d: %v", i, err)
				}
				if math.IsNaN(s) || math.IsInf(s, 0) {
					t.Fatalf("clip %d: non-finite score %v", i, s)
				}
				scores[i] = s
			}
			nd, ok := det.(*NeuralDetector)
			if !ok {
				return
			}
			var buf bytes.Buffer
			if err := nn.Save(&buf, nd.Network()); err != nil {
				t.Fatalf("save network: %v", err)
			}
			net, err := nn.Load(&buf)
			if err != nil {
				t.Fatalf("load network: %v", err)
			}
			loaded, err := nd.WithNetwork(net)
			if err != nil {
				t.Fatalf("with network: %v", err)
			}
			for i, lc := range test {
				s, err := loaded.Score(context.Background(), lc.Clip)
				if err != nil {
					t.Fatalf("reloaded score clip %d: %v", i, err)
				}
				if math.Float64bits(s) != math.Float64bits(scores[i]) {
					t.Fatalf("clip %d: reloaded score %v != original %v", i, s, scores[i])
				}
			}
		})
	}
}

// TestSharedInstanceConcurrentScore holds the whole line-up to the
// Detector concurrency contract: every zoo spec is fitted once, and the
// one instance, scored from 8 goroutines through Score and, on a neural
// row, ScoreBatch, answers the bits it answers serially. Meaningful
// under -race. The fit skips augmentation: what is scored matters here,
// not how well.
func TestSharedInstanceConcurrentScore(t *testing.T) {
	b := facadeBenchmark(t)
	train := FromSamples(b.Train.Samples)
	clips := make([]layout.Clip, 8)
	for i := range clips {
		clips[i] = b.Test.Samples[i].Clip
	}
	for _, spec := range SurveyZoo(5) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			det := spec.New()
			reduceEpochs(det)
			if err := det.Fit(train); err != nil {
				t.Fatalf("fit: %v", err)
			}
			want := make([]float64, len(clips))
			for i, c := range clips {
				s, err := det.Score(context.Background(), c)
				if err != nil {
					t.Fatalf("score clip %d: %v", i, err)
				}
				want[i] = s
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					got := make([]float64, len(clips))
					var err error
					// Only a neural row has a batch path.
					if nd, neural := det.(*NeuralDetector); neural && g%2 == 1 {
						got, err = nd.ScoreBatch(clips)
					} else {
						for i, c := range clips {
							if got[i], err = det.Score(context.Background(), c); err != nil {
								break
							}
						}
					}
					if err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Errorf("goroutine %d clip %d: %v, serial %v", g, i, got[i], want[i])
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// recordSpans runs score under a fresh recording trace and returns its
// result with the names of the spans it ended, in End order.
func recordSpans(t *testing.T, score func(ctx context.Context) (float64, error)) (float64, []string) {
	t.Helper()
	tr := trace.New(trace.Config{Capacity: 1})
	ctx, root := trace.Start(trace.WithTracer(context.Background(), tr), "root")
	s, err := score(ctx)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	var names []string
	for _, sp := range tr.Traces(1)[0].Spans {
		if sp.Name != "root" {
			names = append(names, sp.Name)
		}
	}
	return s, names
}

// TestZooSpanShape: every zoo spec scores through one body, traced or
// not. Score under a recording context returns the bits it returns
// under context.Background(), and records the stages: every detector
// that scores through features ends on an "inference" span after a
// "raster" and a "features" span, and pattern matching, which has no
// stages, records none.
func TestZooSpanShape(t *testing.T) {
	b := facadeBenchmark(t)
	train := FromSamples(b.Train.Samples)
	clips := b.Test.Samples[:4]
	for _, spec := range SurveyZoo(5) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			det := spec.New()
			reduceEpochs(det)
			if err := det.Fit(train); err != nil {
				t.Fatalf("fit: %v", err)
			}
			for i, sample := range clips {
				clip := sample.Clip
				untraced, err := det.Score(context.Background(), clip)
				if err != nil {
					t.Fatalf("clip %d: %v", i, err)
				}
				traced, got := recordSpans(t, func(ctx context.Context) (float64, error) {
					return det.Score(ctx, clip)
				})
				if math.Float64bits(traced) != math.Float64bits(untraced) {
					t.Fatalf("clip %d: traced Score %v, untraced %v", i, traced, untraced)
				}
				if _, pm := det.(*core.PMDetector); pm {
					if len(got) != 0 {
						t.Fatalf("clip %d: pattern matching recorded spans %v", i, got)
					}
					continue
				}
				if len(got) < 3 || !slices.Contains(got, "raster") || !slices.Contains(got, "features") ||
					got[len(got)-1] != "inference" {
					t.Fatalf("clip %d: spans %v are not raster and features, then inference", i, got)
				}
			}
		})
	}
}

// BenchmarkFitZooAdaBoost measures one whole fit of the zoo's AdaBoost
// as the serve bench's set-up and hsdserve -fallback AdaBoost run it
// (StandardAdaBoost on the small suite's 100-clip S1 train split): the
// shallow view's extraction of every clip, standardization and 150
// boosting rounds. It is the shallow counterpart of internal/nn's
// BenchmarkFitZooCNN.
func BenchmarkFitZooAdaBoost(b *testing.B) {
	cfg := SmallSuiteConfig(1)
	cfg.Specs = cfg.Specs[:1]
	suite, err := GenerateSuite(cfg)
	if err != nil {
		b.Fatal(err)
	}
	train := FromSamples(suite.Benchmarks[0].Train.Samples)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := StandardAdaBoost().Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}
