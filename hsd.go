// Package hsd is a complete Go implementation of machine-learning
// lithography hotspot detection, from shallow to deep models, as surveyed
// in "Lithography hotspot detection: From shallow to deep learning"
// (IEEE SOCC 2017).
//
// The package is a facade over the implementation packages and is the
// intended entry point for downstream users. It exports only what its
// callers use (DESIGN.md §6):
//
//   - layout modelling and clip extraction (Layout);
//   - a lithography-simulation oracle for ground-truth labelling
//     (Simulator);
//   - ICCAD-2012-style synthetic benchmark generation (GenerateSuite);
//   - feature extraction (Density, CCAS, DCTFeatures);
//   - the detector zoo (SurveyZoo): pattern matching, SVM, AdaBoost,
//     MLP, and CNN with biased learning;
//   - the contest evaluation protocol (Evaluate: accuracy, false alarms,
//     ODST) and a fault-tolerant full-chip scanner (ScanFarm).
//
// See examples/ for runnable end-to-end programs and DESIGN.md for the
// system inventory.
package hsd

import (
	"context"
	"errors"
	"io"

	"github.com/golitho/hsd/internal/boost"
	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/features"
	"github.com/golitho/hsd/internal/gdsii"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/iccad"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/lithosim"
	"github.com/golitho/hsd/internal/metrics"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/raster"
	"github.com/golitho/hsd/internal/scanfarm"
	"github.com/golitho/hsd/internal/telemetry"
)

// Layout is a single-layer mask layout with a spatial index.
type Layout = layout.Layout

// Pt is shorthand for a point in nanometres.
func Pt(x, y int) geom.Point { return geom.Pt(x, y) }

// R is shorthand for a canonical rectangle.
func R(x0, y0, x1, y1 int) geom.Rect { return geom.R(x0, y0, x1, y1) }

// NewLayout returns an empty layout.
func NewLayout(name string) *Layout { return layout.New(name) }

// ReadLayout parses a GLT-format layout stream.
func ReadLayout(r io.Reader) (*Layout, error) { return layout.Read(r) }

// WriteLayout serializes a layout in GLT format.
func WriteLayout(w io.Writer, l *Layout) error { return layout.Write(w, l) }

// ReadGDSII parses a GDSII stream-format layout (BOUNDARY subset).
func ReadGDSII(r io.Reader) (*Layout, error) { return gdsii.Read(r) }

// WriteGDSII serializes a layout as a GDSII stream library.
func WriteGDSII(w io.Writer, l *Layout) error { return gdsii.Write(w, l) }

// Simulator runs the process-window printability check, the
// ground-truth oracle.
type Simulator = lithosim.Simulator

// DefaultSimConfig models an aggressive 193 nm immersion process.
func DefaultSimConfig() lithosim.Config { return lithosim.DefaultConfig() }

// NewSimulator constructs the oracle.
func NewSimulator(cfg lithosim.Config) (*Simulator, error) { return lithosim.New(cfg) }

// RasterizeClip renders a clip window at the given pixel pitch (in
// nanometres) into a coverage image, the input of Simulator.AerialImage.
func RasterizeClip(clip layout.Clip, pixelNM int) (*raster.Image, error) {
	return raster.Rasterize(raster.Config{Window: clip.Window, PixelNM: pixelNM}, clip.Shapes)
}

// Benchmark generation.
type (
	// Suite is a generated multi-benchmark dataset.
	Suite = iccad.Suite
	// Benchmark is one named benchmark with train/test splits.
	Benchmark = iccad.Benchmark
	// BenchmarkSpec sizes one benchmark.
	BenchmarkSpec = iccad.Spec
)

// GenerateSuite builds a synthetic benchmark suite.
func GenerateSuite(cfg iccad.SuiteConfig) (*Suite, error) { return iccad.GenerateSuite(cfg) }

// DefaultSuiteConfig mirrors the five ICCAD 2012 benchmarks (scaled).
func DefaultSuiteConfig(seed int64) iccad.SuiteConfig { return iccad.DefaultSuiteConfig(seed) }

// SmallSuiteConfig is a miniature two-benchmark suite for quick runs.
func SmallSuiteConfig(seed int64) iccad.SuiteConfig { return iccad.SmallSuiteConfig(seed) }

// DefaultPatternStyle returns the balanced metal-layer style.
func DefaultPatternStyle() iccad.Style { return iccad.DefaultStyle() }

// GenerateChip synthesizes a full-chip layout for scanning experiments.
func GenerateChip(seed int64, edgeNM int, style iccad.Style) (*Layout, error) {
	return iccad.GenerateChip(seed, edgeNM, style)
}

// Feature extraction.
type (
	// FeatureExtractor turns clips into fixed-length vectors.
	FeatureExtractor = features.Extractor
	// Density is the density-grid extractor.
	Density = features.Density
	// CCAS is concentric-circle area sampling.
	CCAS = features.CCAS
	// DCTFeatures is the block-DCT feature-tensor extractor.
	DCTFeatures = features.DCT
	// GeomStats is the hand-crafted geometric feature family.
	GeomStats = features.GeomStats
)

// NewConcatFeatures fuses extractors in order.
func NewConcatFeatures(parts ...FeatureExtractor) *features.Concat {
	return features.NewConcat(parts...)
}

// Detection.
type (
	// Detector is a trainable hotspot classifier.
	Detector = core.Detector
	// LabeledClip is one training/evaluation sample.
	LabeledClip = core.LabeledClip
	// AugmentConfig controls minority-class augmentation.
	AugmentConfig = core.AugmentConfig
	// EvalOptions controls Evaluate.
	EvalOptions = core.EvalOptions
	// EvalResult is one detector-on-benchmark outcome.
	EvalResult = core.Result
	// Finding is one flagged scan window.
	Finding = core.Finding

	// BoostConfig parameterizes AdaBoost.
	BoostConfig = boost.Config
	// TrainConfig parameterizes neural training.
	TrainConfig = nn.TrainConfig
	// CNNConfig describes the CNN topology.
	CNNConfig = nn.CNNConfig
	// NeuralDetector is the MLP/CNN detector type.
	NeuralDetector = core.NeuralDetector
)

// NewBoostDetector builds an AdaBoost detector over the extractor.
func NewBoostDetector(ex FeatureExtractor, cfg BoostConfig) Detector {
	return core.NewBoostDetector(ex, cfg)
}

// NewCNNDetector builds the deep feature-tensor CNN detector.
func NewCNNDetector(ex *DCTFeatures, cnn CNNConfig, cfg TrainConfig, label string) *NeuralDetector {
	return core.NewCNNDetector(ex, cnn, cfg, label)
}

// FromSamples converts generator samples into evaluation clips.
func FromSamples(samples []iccad.Sample) []LabeledClip { return core.FromSamples(samples) }

// AugmentMinority expands the hotspot class of a training set with
// upsampling and symmetry transforms.
func AugmentMinority(train []LabeledClip, cfg AugmentConfig) []LabeledClip {
	return core.AugmentMinority(train, cfg)
}

// Evaluate runs the ICCAD-2012 protocol for one detector on one benchmark.
func Evaluate(det Detector, bench string, train, test []LabeledClip, opt EvalOptions) (EvalResult, error) {
	return core.Evaluate(det, bench, train, test, opt)
}

// EvaluateCtx is Evaluate with trace attribution: when ctx carries a
// tracer (see internal/trace), the run records an "eval" span whose
// "fit", "score", and "verify" children decompose the reported ODST
// terms directly.
func EvaluateCtx(ctx context.Context, det Detector, bench string, train, test []LabeledClip, opt EvalOptions) (EvalResult, error) {
	return core.EvaluateCtx(ctx, det, bench, train, test, opt)
}

// Fault-tolerant distributed scanning (internal/scanfarm): the shard
// coordinator behind `hsdscan -workers/-journal/-resume/-cache-size`.
type (
	// ScanFarmConfig tunes the shard coordinator: window geometry,
	// worker pool, shard size, clip cache, and the resumable journal.
	ScanFarmConfig = scanfarm.Config
	// ScanJournal is the framed-CRC32 append-only record of completed
	// shards behind resumable scans.
	ScanJournal = scanfarm.Journal
	// ScanShardRecord is one journaled shard outcome.
	ScanShardRecord = scanfarm.ShardRecord
)

// ScanFarm scans the chip through the fault-tolerant shard coordinator:
// deterministic findings regardless of schedule, poison shards
// quarantined instead of failing the run, resumable via the journal,
// and repeated geometry answered from the clip cache.
func ScanFarm(ctx context.Context, chip *Layout, det Detector, cfg ScanFarmConfig) (scanfarm.Result, error) {
	return scanfarm.Run(ctx, chip, det, cfg)
}

// CreateScanJournal starts a fresh scan journal at path.
func CreateScanJournal(path string, meta scanfarm.Meta) (*ScanJournal, error) {
	return scanfarm.CreateJournal(path, meta)
}

// ResumeScanJournal validates and reopens a scan journal, returning the
// intact shard records to pass as ScanFarmConfig.Completed.
func ResumeScanJournal(path string, meta scanfarm.Meta) (*ScanJournal, map[int]ScanShardRecord, error) {
	return scanfarm.ResumeJournal(path, meta)
}

// MetricsRegistry collects operational counters, gauges, and latency
// histograms; pass one as ScanFarmConfig.Metrics to observe a scan, and
// render it with WritePrometheus or Snapshot.
type MetricsRegistry = telemetry.Registry

// NewMetricsRegistry constructs an empty telemetry registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// ROCPoint is one operating point of a threshold sweep.
type ROCPoint = metrics.ROCPoint

// ROC computes the ROC curve and AUC of scores against labels.
func ROC(scores []float64, labels []int) ([]ROCPoint, float64, error) {
	return metrics.ROC(scores, labels)
}

// SaveNetworkFile writes a trained neural detector's network to path
// crash-safely: temp file in the same directory, fsync, atomic rename.
// A crash mid-save leaves the previous file (or nothing) intact.
func SaveNetworkFile(path string, d *NeuralDetector) error {
	if d.Network() == nil {
		return errors.New("hsd: detector is not fitted")
	}
	return nn.SaveFile(path, d.Network())
}
