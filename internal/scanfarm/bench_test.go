package scanfarm

import (
	"context"
	"testing"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/iccad"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/qualitymon"
	"github.com/golitho/hsd/internal/raster"
)

// The scan-throughput benchmark pair (`go test -bench ScanFarm
// ./internal/scanfarm/`): the same repeated-standard-cell chip scanned
// cold (no cache: every window runs the detector) and warm (content
// addressed cache: repeated geometry answered by hash lookup). The
// ratio is the cache's compute-bound → hash-bound win on repetitive
// layouts.

func benchChip(b *testing.B) *layout.Layout { return cellChip(b, 12) }

// rasterDetector pays a realistic per-window cost — a full 128x128
// area-accurate rasterization, the front half of every image-based
// extractor — so the bench reflects what a cache hit actually saves.
type rasterDetector struct{ thr float64 }

func (d rasterDetector) Name() string                 { return "raster" }
func (d rasterDetector) Fit([]core.LabeledClip) error { return nil }
func (d rasterDetector) Threshold() float64           { return d.thr }
func (d rasterDetector) Score(c layout.Clip) (float64, error) {
	im, err := raster.Rasterize(raster.Config{Window: c.Window, PixelNM: 8}, c.Shapes)
	if err != nil {
		return 0, err
	}
	return im.Sum() / float64(im.W*im.H), nil
}

func benchScan(b *testing.B, cacheSize int, qm *qualitymon.Monitor) {
	chip := benchChip(b)
	det := rasterDetector{thr: 0.1}
	cfg := Config{SkipEmpty: true, Workers: 2, ShardRows: 2, CacheSize: cacheSize, Quality: qm}
	var findings []core.Finding
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), chip, det, cfg)
		if err != nil {
			b.Fatal(err)
		}
		findings = res.Findings
	}
	_ = findings
}

func BenchmarkScanFarmColdCache(b *testing.B) { benchScan(b, 0, nil) }

func BenchmarkScanFarmWarmCache(b *testing.B) { benchScan(b, 1<<16, nil) }

// The quality-monitor overhead pair: QualityOff is the everyone-pays
// cost of the nil tap in scoreWindow (must stay within 2% of the
// cold-cache baseline above); QualityOn adds live sketch updates per
// window.
func BenchmarkScanFarmQualityOff(b *testing.B) { benchScan(b, 0, nil) }

func BenchmarkScanFarmQualityOn(b *testing.B) {
	qm := qualitymon.New(qualitymon.Options{})
	defer qm.Close()
	benchScan(b, 0, qm)
}

// BenchmarkScanFarmCNNMiss is the bench's scan_unique outside bench/:
// the fitted CNN over a generated chip with no repeated geometry, a
// fresh cache every scan, so every window pays raster, DCT and network.
func BenchmarkScanFarmCNNMiss(b *testing.B) {
	det := fittedCNN(b, false)
	chip, err := iccad.GenerateChip(2, 16*1024, iccad.DefaultStyle())
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{SkipEmpty: true, Workers: 2, CacheSize: 4096}
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err = Run(context.Background(), chip, det, cfg); err != nil {
			b.Fatal(err)
		}
	}
	if res.Cache.Hits*20 > res.Cache.Misses {
		b.Fatalf("cache %+v: the chip repeats itself", res.Cache)
	}
	b.ReportMetric(float64(b.N*res.Scanned)/b.Elapsed().Seconds(), "windows/s")
}
