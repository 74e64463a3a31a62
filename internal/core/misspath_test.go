package core

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/golitho/hsd/internal/features"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/tensor"
	"github.com/golitho/hsd/internal/trace"
)

// updateGolden rewrites the miss-path golden from the running code.
// testdata/misspath_zoo_golden.json was written at the commit before the
// block DCT and the convolutions moved onto the matmul kernel;
// regenerating it on a later commit defeats its purpose, which is to pin
// scores across that boundary.
var updateGolden = flag.Bool("update-misspath-golden", false, "rewrite the miss-path golden (see comment)")

// seededClip draws a 1024 nm clip of 1..14 random rectangles.
func seededClip(t testing.TB, rng *rand.Rand) layout.Clip {
	t.Helper()
	l := layout.New("golden")
	for i, n := 0, 1+rng.Intn(14); i < n; i++ {
		x, y := rng.Intn(960), rng.Intn(960)
		if err := l.AddRect(geom.R(x, y, x+16+rng.Intn(220), y+16+rng.Intn(220))); err != nil {
			t.Fatal(err)
		}
	}
	clip, err := l.ClipAt(geom.Pt(512, 512), 1024, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return clip
}

// TestMissPathGolden replays a window's whole miss path (raster, the
// zoo's DCT{16,16} tensor, an untrained fixed-seed CNN) on 32 seeded
// clips and demands the exact score bits the parent commit produced. The
// other equivalence tests compare this commit with itself; this one is
// the cross-commit anchor. The network is the zoo's topology, whose conv
// -> ReLU -> pool runs are the ones ForwardBatch folds into one pass,
// with non-zero biases so the fold's bias add is in the pinned bits.
func TestMissPathGolden(t *testing.T) {
	t.Run("zoo", func(t *testing.T) { missPathGolden(t, "testdata/misspath_zoo_golden.json") })
}

func missPathGolden(t *testing.T, goldenPath string) {
	ex := &features.DCT{Blocks: 16, Coefs: 16}
	net, err := nn.BuildCNN(nn.CNNConfig{
		InC: 16, InH: 16, InW: 16,
		Conv1: 16, Conv2: 24, Hidden: 48, DropoutP: 0.1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Init(rand.New(rand.NewSource(77)))
	brng := rand.New(rand.NewSource(78))
	for _, l := range net.Layers {
		switch l := l.(type) {
		case *nn.Conv2D:
			for i := range l.B {
				l.B[i] = 0.2 * brng.NormFloat64()
			}
		case *nn.Dense:
			for i := range l.B {
				l.B[i] = 0.2 * brng.NormFloat64()
			}
		}
	}
	rng := rand.New(rand.NewSource(1414))
	got := make([]string, 32)
	for i := range got {
		v, err := ex.Extract(seededClip(t, rng))
		if err != nil {
			t.Fatal(err)
		}
		// The tensor's own bits are folded in so a DCT drift that the
		// network happens to absorb still shows.
		var fold uint64
		for _, f := range v {
			fold = fold*1099511628211 + math.Float64bits(f)
		}
		got[i] = fmt.Sprintf("%016x/%016x", math.Float64bits(nn.Score(net, v)), fold)
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d entries, want %d", len(want), len(got))
	}
	distinct := map[string]bool{}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("clip %d: score/tensor bits %s, parent commit %s", i, got[i], want[i])
		}
		distinct[want[i]] = true
	}
	if len(distinct) < len(want) {
		t.Fatalf("golden has only %d distinct entries: the fixture is degenerate", len(distinct))
	}
}

var (
	sharedOnce  sync.Once
	sharedCNN   *NeuralDetector
	sharedClips []layout.Clip
	sharedErr   error
)

// fitSharedCNN trains, once per test binary, the small CNN the tests
// below score through without cloning, and returns a dozen test clips.
func fitSharedCNN(t *testing.T) (*NeuralDetector, []layout.Clip) {
	t.Helper()
	train, test := tinySplits(t)
	sharedOnce.Do(func() {
		sharedCNN = NewCNNDetector(&features.DCT{Blocks: 8, Coefs: 8},
			nn.CNNConfig{Conv1: 8, Conv2: 8, Hidden: 16, DropoutP: 0.1},
			nn.TrainConfig{Epochs: 1, BatchSize: 8, Seed: 2}, "cnn")
		sharedCNN.NoScale = true
		sharedErr = sharedCNN.Fit(train) // one epoch: what is scored matters here, not how well
		for _, s := range test[:12] {
			sharedClips = append(sharedClips, s.Clip)
		}
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedCNN, sharedClips
}

// TestSharedDetectorConcurrentScore is the property the arena-backed
// nn.Score adds: one un-cloned neural detector scored from 8 goroutines,
// half of them under a recording trace, answers exactly what it answers
// serially. Meaningful under -race.
func TestSharedDetectorConcurrentScore(t *testing.T) {
	det, clips := fitSharedCNN(t)
	want := make([]float64, len(clips))
	for i, c := range clips {
		s, err := det.Score(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s
	}
	tr := trace.New(trace.Config{Capacity: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			if g%2 == 1 {
				var root *trace.Span
				ctx, root = trace.Start(trace.WithTracer(ctx, tr), "root")
				defer root.End()
			}
			for k := range clips {
				i := (k + g*5) % len(clips) // goroutines collide on different clips
				s, err := det.Score(ctx, clips[i])
				if err != nil {
					t.Errorf("goroutine %d clip %d: %v", g, i, err)
					return
				}
				if math.Float64bits(s) != math.Float64bits(want[i]) {
					t.Errorf("goroutine %d clip %d: %v, serial %v", g, i, s, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// rethresholded embeds a Detector and overrides only its cut, as a
// caller that re-thresholds a fitted model would.
type rethresholded struct{ Detector }

func (rethresholded) Threshold() float64 { return 0.9 }

// TestWrappedDetectorKeepsStageSpans: a wrapper that overrides only
// Threshold scores through the embedded detector's one Score, so the
// fitted CNN's raster, features and inference spans land on a recording
// trace under it, and its score keeps the CNN's bits.
func TestWrappedDetectorKeepsStageSpans(t *testing.T) {
	det, clips := fitSharedCNN(t)
	want, err := det.Score(context.Background(), clips[0])
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Config{Capacity: 1})
	ctx, root := trace.Start(trace.WithTracer(context.Background(), tr), "root")
	got, err := rethresholded{det}.Score(ctx, clips[0])
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("wrapped score %v, the CNN's %v", got, want)
	}
	var names []string
	for _, sp := range tr.Traces(1)[0].Spans {
		if sp.Name != "root" {
			names = append(names, sp.Name)
		}
	}
	if !slices.Equal(names, []string{"raster", "features", "inference"}) {
		t.Fatalf("wrapped CNN recorded spans %v, want raster, features, inference", names)
	}
}

// TestScoreBatchEqualsScore pins the parallel extraction in
// ScoreBatch: at 1 and N kernel workers the batch equals per-clip
// Score bit for bit, in input order.
func TestScoreBatchEqualsScore(t *testing.T) {
	det, clips := fitSharedCNN(t)
	want := make([]float64, len(clips))
	for i, c := range clips {
		s, err := det.Score(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s
	}
	defer tensor.SetDefaultWorkers(0)
	for _, workers := range []int{1, 4} {
		tensor.SetDefaultWorkers(workers)
		got, err := det.ScoreBatch(clips)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d scores for %d clips", workers, len(got), len(clips))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d clip %d: batch %v, Score %v", workers, i, got[i], want[i])
			}
		}
	}
}

// failAt is an extractor that refuses the clips whose first shape starts
// at a marked x.
type failAt struct {
	features.Extractor
	bad map[int]bool
}

var errMarked = errors.New("marked clip")

func (f failAt) Extract(clip layout.Clip) ([]float64, error) {
	if len(clip.Shapes) > 0 && f.bad[clip.Shapes[0].Min.X] {
		return nil, errMarked
	}
	return f.Extractor.Extract(clip)
}

// TestScoreBatchReportsLowestFailingClip: with extraction sharded, the
// error still names the lowest failing index, whichever shard hit a
// failure first.
func TestScoreBatchReportsLowestFailingClip(t *testing.T) {
	det, _ := fitSharedCNN(t)
	clips := make([]layout.Clip, 40)
	for i := range clips {
		w := geom.R(0, 0, 1024, 1024)
		clips[i] = layout.Clip{Window: w, Core: w, Shapes: []geom.Rect{geom.R(i, 0, i+64, 64)}}
	}
	bad := *det
	bad.Ex = failAt{Extractor: det.Ex, bad: map[int]bool{7: true, 23: true, 39: true}}
	defer tensor.SetDefaultWorkers(0)
	for _, workers := range []int{1, 4} {
		tensor.SetDefaultWorkers(workers)
		_, err := bad.ScoreBatch(clips)
		if !errors.Is(err, errMarked) || !strings.Contains(err.Error(), "clip 7:") {
			t.Fatalf("workers=%d: err = %v, want the marked error at clip 7", workers, err)
		}
	}
}

// TestExtractIsDeterministic: a fit's extraction is sharded over the
// kernel pool, yet x[i] is always clips[i]'s vector, and a failure always
// names the lowest failing sample, whichever shard met its failure first.
func TestExtractIsDeterministic(t *testing.T) {
	clips := make([]LabeledClip, 12)
	for i := range clips {
		w := geom.R(0, 0, 1024, 1024)
		clips[i] = LabeledClip{
			Clip:    layout.Clip{Window: w, Core: w, Shapes: []geom.Rect{geom.R(i*8, 0, i*8+64+i, 64)}},
			Hotspot: i%3 == 0,
		}
	}
	ex := &features.Density{Grid: 4}
	bad := failAt{Extractor: ex, bad: map[int]bool{3 * 8: true, 7 * 8: true}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer tensor.SetDefaultWorkers(0)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		tensor.SetDefaultWorkers(procs)
		for run := 0; run < 20; run++ {
			if _, _, err := extract(bad, clips); !errors.Is(err, errMarked) || !strings.Contains(err.Error(), "extract sample 3:") {
				t.Fatalf("procs %d run %d: err = %v, want the marked error at sample 3", procs, run, err)
			}
		}
		x, y, err := extract(ex, clips)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range clips {
			want, err := ex.Extract(c.Clip)
			if err != nil {
				t.Fatal(err)
			}
			if len(x[i]) != len(want) || (y[i] == 1) != c.Hotspot {
				t.Fatalf("procs %d sample %d: %d features label %d, want %d label %v", procs, i, len(x[i]), y[i], len(want), c.Hotspot)
			}
			for j := range want {
				if math.Float64bits(x[i][j]) != math.Float64bits(want[j]) {
					t.Fatalf("procs %d sample %d feature %d: %v, want %v", procs, i, j, x[i][j], want[j])
				}
			}
		}
	}
}

// TestCloneDetectorIsDeepCopy: the copy bench/ takes answers the same
// bits through its own network, so training or reloading one side never
// reaches the other.
func TestCloneDetectorIsDeepCopy(t *testing.T) {
	det, clips := fitSharedCNN(t)
	clone := det.CloneDetector().(*NeuralDetector)
	if clone == det || clone.Network() == det.Network() {
		t.Fatal("CloneDetector shares the detector or its network")
	}
	for i, c := range clips {
		want, err := det.Score(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := clone.Score(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("clip %d: clone %v, original %v", i, got, want)
		}
	}
}
