package scanfarm

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/iccad"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/raster"
	"github.com/golitho/hsd/internal/telemetry"
	"github.com/golitho/hsd/internal/trace"
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
func (d rasterDetector) Score(_ context.Context, c layout.Clip) (float64, error) {
	im, err := raster.Rasterize(raster.Config{Window: c.Window, PixelNM: 8}, c.Shapes)
	if err != nil {
		return 0, err
	}
	return im.Sum() / float64(im.W*im.H), nil
}

func benchScan(b *testing.B, cacheSize int) {
	chip := benchChip(b)
	det := rasterDetector{thr: 0.1}
	cfg := Config{SkipEmpty: true, Workers: 2, ShardRows: 2, CacheSize: cacheSize}
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

func BenchmarkScanFarmColdCache(b *testing.B) { benchScan(b, 0) }

func BenchmarkScanFarmWarmCache(b *testing.B) { benchScan(b, 1<<16) }

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

// BenchmarkScanFarmJournaled is the bench's scan_repeat outside bench/:
// the fitted CNN over a repeated-cell chip with the cache on, so almost
// every window is a hit keyed from the index, and a fresh fsynced
// journal for each scan, so the journal's group commits are what is
// left of the time. commits/op is scan_journal_commits_total over the
// scans, the groups a scan appends, each with one fsync.
func BenchmarkScanFarmJournaled(b *testing.B) {
	det := fittedCNN(b, false)
	chip := cellChip(b, 128)
	// The series exist before the first scan, as in a process that has
	// scanned before, so that the scans count what a scan allocates.
	reg := telemetry.NewRegistry()
	newFarmMetrics(reg)
	cfg := Config{SkipEmpty: true, Workers: 2, CacheSize: 4096, Metrics: reg}
	meta := cfg.Meta(chip, det.Name())
	dir := b.TempDir()
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		path := filepath.Join(dir, fmt.Sprintf("scan-%d.journal", i))
		j, err := CreateJournal(path, meta)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Journal = j
		b.StartTimer()
		res, err = Run(context.Background(), chip, det, cfg)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.Remove(path); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	if rate := res.Cache.HitRate(); rate < 0.995 {
		b.Fatalf("cache hit rate %.4f: the chip does not repeat itself", rate)
	}
	b.ReportMetric(float64(b.N*res.Scanned)/b.Elapsed().Seconds(), "windows/s")
	b.ReportMetric(reg.Counter("scan_journal_commits_total").Value()/float64(b.N), "commits/op")
}

// BenchmarkScanFarmHits is the hit path alone at 1 and 2 workers: the
// fitted CNN over a repeated-cell chip with the cache on and no
// journal, so almost every window is a hit and nothing but the hits
// carries the time. The 2-worker time over the 1-worker time is the hit
// path's scaling, which ci.sh gates: a hit that writes memory another
// worker reads (a shared lock, a shared LRU list) keeps it near 1.
func BenchmarkScanFarmHits(b *testing.B) {
	det := fittedCNN(b, false)
	chip := cellChip(b, 128)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := Config{SkipEmpty: true, Workers: workers, CacheSize: 4096}
			var res Result
			var err error
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, err = Run(context.Background(), chip, det, cfg); err != nil {
					b.Fatal(err)
				}
			}
			if rate := res.Cache.HitRate(); rate < 0.995 {
				b.Fatalf("cache hit rate %.4f: the chip does not repeat itself", rate)
			}
			b.ReportMetric(float64(b.N*res.Scanned)/b.Elapsed().Seconds(), "windows/s")
		})
	}
}

// BenchmarkScanTracedVsUntraced pins the cost of the tracing hooks on
// the loop programs run: Run with the fitted CNN over a generated chip
// and hsdscan's default cache. "untraced" is a context with no tracer,
// the nil-span path a scan takes with tracing off; "enabled" records
// every span the scan opens (one scan.shard per shard and the
// stage spans under each miss), the full price of turning tracing on
// (DESIGN §12 has the recorded runs).
func BenchmarkScanTracedVsUntraced(b *testing.B) {
	det := fittedCNN(b, false)
	chip, err := iccad.GenerateChip(2, 8*1024, iccad.DefaultStyle())
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{SkipEmpty: true, Workers: 2, CacheSize: 4096}
	run := func(b *testing.B, ctx context.Context) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sctx, root := trace.Start(ctx, "scan")
			if _, err := Run(sctx, chip, det, cfg); err != nil {
				b.Fatal(err)
			}
			root.End()
		}
	}
	b.Run("untraced", func(b *testing.B) { run(b, context.Background()) })
	b.Run("enabled", func(b *testing.B) {
		run(b, trace.WithTracer(context.Background(), trace.New(trace.Config{Capacity: 4})))
	})
}
