package core

import (
	"context"
	"testing"

	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
)

// BenchmarkScan4225Windows measures full-chip scan throughput with a
// trivial detector: the harness overhead (clip extraction, worker pool,
// dedup/ordering) independent of model cost.
func BenchmarkScan4225Windows(b *testing.B) {
	chip := layout.NewWithGrid("bench", 2048)
	for y := 0; y < 32768; y += 512 {
		if err := chip.AddRect(geom.R(0, y, 32768, y+96)); err != nil {
			b.Fatal(err)
		}
	}
	det := &stubBenchDetector{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scanAll(chip, det, ScanConfig{SkipEmpty: true}); err != nil {
			b.Fatal(err)
		}
	}
}

type stubBenchDetector struct{}

func (stubBenchDetector) Name() string                                        { return "stub" }
func (stubBenchDetector) Fit([]LabeledClip) error                             { return nil }
func (stubBenchDetector) Threshold() float64                                  { return 0.5 }
func (stubBenchDetector) Score(context.Context, layout.Clip) (float64, error) { return 0, nil }
