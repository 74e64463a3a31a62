package hsd

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/trace"
)

// reduceEpochs shrinks neural training to a couple of epochs so the
// whole zoo trains within test time; accuracy is not under test here,
// only that every spec's construct/fit/score/persist cycle works. The
// router and the ensemble are recursed so their CNN members are shrunk
// too.
func reduceEpochs(det Detector) {
	switch d := det.(type) {
	case *NeuralDetector:
		d.Cfg.Epochs = 2
	case *RouterDetector:
		for _, s := range d.Stages() {
			reduceEpochs(s.Detector)
		}
	case *Ensemble:
		for _, m := range d.Members {
			reduceEpochs(m)
		}
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
				s, err := det.Score(lc.Clip)
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
			if err := SaveNetwork(&buf, nd); err != nil {
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
				s, err := loaded.Score(lc.Clip)
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
// Detector concurrency contract: every zoo spec (the Router cascades
// into a CNN member) plus an Ensemble over a CNN is fitted once, and
// the one instance, scored from 8 goroutines through Score, ScoreClipCtx
// and the batch path, answers the bits it answers serially. Meaningful
// under -race. The fit skips augmentation: what is scored matters here,
// not how well.
func TestSharedInstanceConcurrentScore(t *testing.T) {
	b := facadeBenchmark(t)
	train := FromSamples(b.Train.Samples)
	clips := make([]Clip, 8)
	for i := range clips {
		clips[i] = b.Test.Samples[i].Clip
	}
	specs := append(SurveyZoo(5), DetectorSpec{Name: "Ensemble", New: func() Detector {
		return NewEnsemble(StandardAdaBoost(), StandardFuzzyPM(), StandardCNN(5, 0, "ens-cnn"))
	}})
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			det := spec.New()
			reduceEpochs(det)
			if err := det.Fit(train); err != nil {
				t.Fatalf("fit: %v", err)
			}
			want := make([]float64, len(clips))
			for i, c := range clips {
				s, err := det.Score(c)
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
					switch g % 3 {
					case 0:
						for i, c := range clips {
							if got[i], err = det.Score(c); err != nil {
								break
							}
						}
					case 1:
						for i, c := range clips {
							if got[i], err = core.ScoreClipCtx(context.Background(), det, c); err != nil {
								break
							}
						}
					default:
						got, err = core.ScoreClipsCtx(context.Background(), det, clips)
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
	tr := trace.New(trace.Config{Capacity: 1, Shards: 1})
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

// TestZooSpanShape: every zoo spec has one scoring body. Score cannot
// carry a trace, so the body behind it (the detector's ScoreCtx, where
// it has one) is run under a recording context beside the
// core.ScoreClipCtx dispatch the scan and the server use: both must end
// the same spans in the same order and return the bits plain Score
// returns, and every detector that scores through features must end on
// an "inference" span.
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
				plain, err := det.Score(clip)
				if err != nil {
					t.Fatalf("clip %d: %v", i, err)
				}
				dispatched, want := recordSpans(t, func(ctx context.Context) (float64, error) {
					return core.ScoreClipCtx(ctx, det, clip)
				})
				if math.Float64bits(dispatched) != math.Float64bits(plain) {
					t.Fatalf("clip %d: ScoreClipCtx %v, Score %v", i, dispatched, plain)
				}
				cs, ok := det.(core.CtxScorer)
				if !ok {
					if len(want) != 0 {
						t.Fatalf("clip %d: a detector without ScoreCtx recorded spans %v", i, want)
					}
					continue
				}
				direct, got := recordSpans(t, func(ctx context.Context) (float64, error) {
					return cs.ScoreCtx(ctx, clip)
				})
				if math.Float64bits(direct) != math.Float64bits(plain) {
					t.Fatalf("clip %d: ScoreCtx %v, Score %v", i, direct, plain)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("clip %d: ScoreCtx spans %v, ScoreClipCtx spans %v", i, got, want)
				}
				if _, routed := det.(*RouterDetector); !routed && (len(got) == 0 || got[len(got)-1] != "inference") {
					t.Fatalf("clip %d: spans %v do not end on inference", i, got)
				}
			}
		})
	}
}
