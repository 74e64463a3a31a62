package core

import (
	"context"
	"testing"

	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/trace"
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
		if _, err := Scan(chip, det, ScanConfig{SkipEmpty: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanTracedVsUntraced pins the cost of the tracing hooks on
// the scan hot path. "untraced" is a context with no tracer at all;
// "disabled" carries a toggled-off tracer, exercising the nil-span fast
// path every window takes in production when tracing is off — it must
// stay within ~2% of untraced (the acceptance bound; DESIGN.md §12 has
// the recorded runs). "enabled" records a span per
// window and shows the full price of turning tracing on.
func BenchmarkScanTracedVsUntraced(b *testing.B) {
	chip := layout.NewWithGrid("bench", 2048)
	for y := 0; y < 16384; y += 512 {
		if err := chip.AddRect(geom.R(0, y, 16384, y+96)); err != nil {
			b.Fatal(err)
		}
	}
	det := &stubBenchDetector{}
	run := func(b *testing.B, ctx context.Context) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ScanCtx(ctx, chip, det, ScanConfig{SkipEmpty: true}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("untraced", func(b *testing.B) {
		run(b, context.Background())
	})
	b.Run("disabled", func(b *testing.B) {
		tr := trace.New(trace.Config{})
		tr.SetEnabled(false)
		run(b, trace.WithTracer(context.Background(), tr))
	})
	b.Run("enabled", func(b *testing.B) {
		tr := trace.New(trace.Config{Capacity: 4})
		ctx := trace.WithTracer(context.Background(), tr)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sctx, root := trace.Start(ctx, "scan")
			if _, err := ScanCtx(sctx, chip, det, ScanConfig{SkipEmpty: true}); err != nil {
				b.Fatal(err)
			}
			root.End()
		}
	})
}

type stubBenchDetector struct{}

func (stubBenchDetector) Name() string                       { return "stub" }
func (stubBenchDetector) Fit([]LabeledClip) error            { return nil }
func (stubBenchDetector) Threshold() float64                 { return 0.5 }
func (stubBenchDetector) Score(layout.Clip) (float64, error) { return 0, nil }
