package scanfarm

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/features"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/iccad"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/nn"
)

// The farm's tests above score through doubles (density, a bare raster).
// These score through what `hsdscan -detector CNN-biased` scores through:
// the zoo's CNN topology over the zoo's DCT{16,16} tensor, fitted once
// on the small suite. TestFarmCNNMatchesCoreScan was written against the
// commit before the farm's miss path took its tensor from shared tiles
// and passes there unedited; core.ScanCtx, which extracts every window
// from its own clip, is the reference.

var cnnFixture struct {
	once          sync.Once
	plain, scaled *core.NeuralDetector
	err           error
}

// fittedCNN returns the shared fitted detector: the zoo's row (NoScale)
// or its standardized twin. The threshold is the median score of the
// fixture chip's windows, so a scan flags about half of them whatever a
// four-epoch fit happened to learn.
func fittedCNN(t testing.TB, scaled bool) *core.NeuralDetector {
	t.Helper()
	fx := &cnnFixture
	fx.once.Do(func() {
		suite, err := iccad.GenerateSuite(iccad.SmallSuiteConfig(1))
		if err != nil {
			fx.err = err
			return
		}
		train := core.FromSamples(suite.Benchmarks[0].Train.Samples)
		chip, err := buildCNNChip(6)
		if err != nil {
			fx.err = err
			return
		}
		for _, noScale := range []bool{true, false} {
			det := core.NewCNNDetector(&features.DCT{Blocks: 16, Coefs: 16},
				nn.CNNConfig{Conv1: 16, Conv2: 24, Hidden: 48, DropoutP: 0.1, Seed: 1},
				nn.TrainConfig{Epochs: 4, BatchSize: 32, Seed: 1, Optimizer: nn.NewAdam(1e-3)}, "cnn")
			det.NoScale = noScale
			if fx.err = det.Fit(train); fx.err != nil {
				return
			}
			det.Thr = 1e-300 // flag every scored window to read its score
			all, err := core.ScanCtx(context.Background(), chip, det, core.ScanConfig{SkipEmpty: true})
			if err != nil {
				fx.err = err
				return
			}
			scores := make([]float64, len(all.Findings))
			for i, f := range all.Findings {
				scores[i] = f.Score
			}
			sort.Float64s(scores)
			det.Thr = scores[len(scores)/2]
			if noScale {
				fx.plain = det
			} else {
				fx.scaled = det
			}
		}
	})
	if fx.err != nil {
		t.Fatal(fx.err)
	}
	if scaled {
		return fx.scaled
	}
	return fx.plain
}

// cnnChip is a generated chip of tiles x tiles pattern regions with one
// 2 x 2 block of them left blank. GenerateChip insets every region by
// 96 nm, so the bounds are not a multiple of any stride used here: the
// last row and column of windows overhang the die, and the windows
// inside the blank block are empty.
func cnnChip(t testing.TB, tiles int) *layout.Layout {
	t.Helper()
	l, err := buildCNNChip(tiles)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func buildCNNChip(tiles int) (*layout.Layout, error) {
	gen, err := iccad.GenerateChip(7, tiles*1024, iccad.DefaultStyle())
	if err != nil {
		return nil, err
	}
	hole := geom.R(1024, 1024, 3*1024, 3*1024)
	l := layout.NewWithGrid("cnn-chip", 2048)
	for _, s := range gen.Shapes() {
		if s.Overlaps(hole) {
			continue
		}
		if err := l.AddRect(s); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// requireMixedFindings fails a fixture that cannot tell a right scan
// from one that flags nothing or everything, or that skipped no window.
func requireMixedFindings(t *testing.T, chip *layout.Layout, cfg Config, want []core.Finding) {
	t.Helper()
	plan := NewPlan(chip.Bounds(), cfg)
	empty := 0
	for row := 0; row < plan.Rows; row++ {
		for col := 0; col < plan.Cols; col++ {
			clip, err := chip.ClipAt(plan.Center(col, row), plan.ClipNM, plan.CoreFrac)
			if err != nil {
				t.Fatal(err)
			}
			if len(clip.Shapes) == 0 {
				empty++
			}
		}
	}
	scored := plan.Windows() - empty
	if empty == 0 || len(want) == 0 || len(want) >= scored {
		t.Fatalf("fixture is degenerate: %d windows, %d empty, %d flagged", plan.Windows(), empty, len(want))
	}
	b := chip.Bounds()
	if b.Dx()%plan.StrideNM == 0 || b.Dy()%plan.StrideNM == 0 {
		t.Fatalf("bounds %v are a whole number of %d nm strides: no window overhangs", b, plan.StrideNM)
	}
}

func TestFarmCNNMatchesCoreScan(t *testing.T) {
	det := fittedCNN(t, false)
	chip := cnnChip(t, 6)
	base := Config{SkipEmpty: true, Retry: fastRetry()}
	want := referenceFindings(t, chip, det, base)
	requireMixedFindings(t, chip, base, want)

	for _, workers := range []int{1, 2, 8} {
		for _, shardRows := range []int{1, 2, 3} {
			for _, cacheSize := range []int{0, 4096} {
				name := fmt.Sprintf("w%d-rows%d-cache%d", workers, shardRows, cacheSize)
				t.Run(name, func(t *testing.T) {
					cfg := base
					cfg.Workers, cfg.ShardRows, cfg.CacheSize = workers, shardRows, cacheSize
					res, err := Run(context.Background(), chip, det, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if res.Interrupted || len(res.Quarantined) != 0 || res.Scanned != res.Windows {
						t.Fatalf("clean run: interrupted=%v quarantined=%d scanned %d of %d",
							res.Interrupted, len(res.Quarantined), res.Scanned, res.Windows)
					}
					if !reflect.DeepEqual(res.Findings, want) {
						t.Fatalf("farm findings diverge from core scan:\nfarm %v\ncore %v", res.Findings, want)
					}
				})
			}
		}
	}

	// Other geometries and a standardized detector, each against its own
	// serial scan. At a stride of 256 a window is 4 x 4 strides; at 500
	// and 96 the clip is not a whole number of strides.
	small := cnnChip(t, 4)
	variants := []struct {
		name   string
		chip   *layout.Layout
		det    core.Detector
		stride int
	}{
		{"stride256", small, det, 256},
		{"stride500", chip, det, 500},
		{"stride96", cnnChip(t, 3), det, 96},
		{"scaled", chip, fittedCNN(t, true), 0},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := base
			cfg.StrideNM, cfg.Workers, cfg.ShardRows, cfg.CacheSize = v.stride, 2, 2, 4096
			want := referenceFindings(t, v.chip, v.det, cfg)
			requireMixedFindings(t, v.chip, cfg, want)
			res, err := Run(context.Background(), v.chip, v.det, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Quarantined) != 0 || !reflect.DeepEqual(res.Findings, want) {
				t.Fatalf("farm findings diverge from core scan (quarantined %d):\nfarm %v\ncore %v",
					len(res.Quarantined), res.Findings, want)
			}
		})
	}

	t.Run("cancel-resume", func(t *testing.T) {
		cfg := base
		cfg.Workers, cfg.ShardRows, cfg.CacheSize = 2, 2, 4096
		meta := cfg.Meta(chip, det.Name())
		path := filepath.Join(t.TempDir(), "scan.journal")
		j, err := CreateJournal(path, meta)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Journal = j
		// Cut mid-shard, a third of the way in: the detector is handed to
		// Run bare, so the cancel comes from the context the window loop
		// polls rather than from a wrapper around Score.
		ctx := cancelAfterPolls(context.Background(), int64(NewPlan(chip.Bounds(), cfg).Windows()/3))
		first, err := Run(ctx, chip, det, cfg)
		j.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !first.Interrupted || first.Completed == 0 || first.Completed == first.Shards {
			t.Fatalf("cut run: interrupted=%v completed %d of %d shards", first.Interrupted, first.Completed, first.Shards)
		}
		j, completed, err := ResumeJournal(path, meta)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if len(completed) != first.Completed {
			t.Fatalf("journal holds %d shards, the cut run completed %d", len(completed), first.Completed)
		}
		cfg.Journal, cfg.Completed = j, completed
		res, err := Run(context.Background(), chip, det, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Interrupted || res.Resumed != len(completed) || !reflect.DeepEqual(res.Findings, want) {
			t.Fatalf("resumed findings diverge from core scan (interrupted=%v resumed=%d):\nfarm %v\ncore %v",
				res.Interrupted, res.Resumed, res.Findings, want)
		}
	})
}

// pollCancelCtx cancels itself on its n-th Err call: the farm's window
// loop polls Err once per window, so the cut lands mid-shard.
type pollCancelCtx struct {
	context.Context
	left   atomic.Int64
	cancel context.CancelFunc
}

func cancelAfterPolls(parent context.Context, n int64) context.Context {
	ctx, cancel := context.WithCancel(parent)
	c := &pollCancelCtx{Context: ctx, cancel: cancel}
	c.left.Store(n)
	return c
}

func (c *pollCancelCtx) Err() error {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}
