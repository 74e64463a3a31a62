// Package hsd is a complete Go implementation of machine-learning
// lithography hotspot detection, from shallow to deep models, as surveyed
// in "Lithography hotspot detection: From shallow to deep learning"
// (IEEE SOCC 2017).
//
// The package is a facade over the implementation packages and is the
// intended entry point for downstream users. It covers:
//
//   - layout modelling and clip extraction (Layout, Clip);
//   - a lithography-simulation oracle for ground-truth labelling
//     (Simulator);
//   - ICCAD-2012-style synthetic benchmark generation (GenerateSuite);
//   - feature extraction (Density, CCAS, DCTFeatures);
//   - the detector zoo: pattern matching, SVM, AdaBoost, MLP, CNN with
//     biased learning, and voting ensembles;
//   - the contest evaluation protocol (Evaluate: accuracy, false alarms,
//     ODST) and a parallel full-chip scanner (Scan).
//
// See examples/ for runnable end-to-end programs and DESIGN.md for the
// system inventory.
package hsd

import (
	"context"
	"io"

	"github.com/golitho/hsd/internal/boost"
	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/dtree"
	"github.com/golitho/hsd/internal/features"
	"github.com/golitho/hsd/internal/gdsii"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/iccad"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/lithosim"
	"github.com/golitho/hsd/internal/logreg"
	"github.com/golitho/hsd/internal/metrics"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/opc"
	"github.com/golitho/hsd/internal/pm"
	"github.com/golitho/hsd/internal/raster"
	"github.com/golitho/hsd/internal/router"
	"github.com/golitho/hsd/internal/scanfarm"
	"github.com/golitho/hsd/internal/svm"
	"github.com/golitho/hsd/internal/telemetry"
)

// Geometry and layout types.
type (
	// Point is an integer layout coordinate in nanometres.
	Point = geom.Point
	// Rect is a half-open axis-aligned rectangle.
	Rect = geom.Rect
	// Polygon is a rectilinear polygon ring.
	Polygon = geom.Polygon
	// Layout is a single-layer mask layout with a spatial index.
	Layout = layout.Layout
	// Clip is a square detection window with its scored core.
	Clip = layout.Clip
)

// Pt is shorthand for a Point.
func Pt(x, y int) Point { return geom.Pt(x, y) }

// R is shorthand for a canonical Rect.
func R(x0, y0, x1, y1 int) Rect { return geom.R(x0, y0, x1, y1) }

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

// Lithography simulation (the ground-truth oracle).
type (
	// SimConfig parameterizes the optical model and defect checks.
	SimConfig = lithosim.Config
	// Simulator runs the process-window printability check.
	Simulator = lithosim.Simulator
	// SimResult is the oracle verdict for one clip.
	SimResult = lithosim.Result
	// Defect is one printing failure.
	Defect = lithosim.Defect
	// DefectType enumerates failure categories.
	DefectType = lithosim.DefectType
)

// Defect categories.
const (
	DefectBridge = lithosim.DefectBridge
	DefectNeck   = lithosim.DefectNeck
	DefectOpen   = lithosim.DefectOpen
	DefectEPE    = lithosim.DefectEPE
)

// DefaultSimConfig models an aggressive 193 nm immersion process.
func DefaultSimConfig() SimConfig { return lithosim.DefaultConfig() }

// NewSimulator constructs the oracle.
func NewSimulator(cfg SimConfig) (*Simulator, error) { return lithosim.New(cfg) }

// RasterImage is a grayscale coverage raster of layout geometry.
type RasterImage = raster.Image

// OPC (optical proximity correction) over the oracle.
type (
	// OPCConfig controls the correction loop.
	OPCConfig = opc.Config
	// OPCResult reports a correction attempt.
	OPCResult = opc.Result
)

// CorrectClip attempts to repair a clip's printing failures with
// rule-based mask edits driven by the simulator.
func CorrectClip(sim *Simulator, clip Clip, cfg OPCConfig) (OPCResult, error) {
	return opc.Correct(sim, clip, cfg)
}

// RasterizeClip renders a clip window at the given pixel pitch (in
// nanometres) into a coverage image, the input of Simulator.AerialImage.
func RasterizeClip(clip Clip, pixelNM int) (*RasterImage, error) {
	return raster.Rasterize(raster.Config{Window: clip.Window, PixelNM: pixelNM}, clip.Shapes)
}

// Benchmark generation.
type (
	// Suite is a generated multi-benchmark dataset.
	Suite = iccad.Suite
	// Benchmark is one named benchmark with train/test splits.
	Benchmark = iccad.Benchmark
	// Split is one data partition.
	Split = iccad.Split
	// Sample is one labelled clip.
	Sample = iccad.Sample
	// SuiteConfig parameterizes suite generation.
	SuiteConfig = iccad.SuiteConfig
	// BenchmarkSpec sizes one benchmark.
	BenchmarkSpec = iccad.Spec
	// PatternStyle controls the pattern distribution of a benchmark.
	PatternStyle = iccad.Style
)

// GenerateSuite builds a synthetic benchmark suite.
func GenerateSuite(cfg SuiteConfig) (*Suite, error) { return iccad.GenerateSuite(cfg) }

// DefaultSuiteConfig mirrors the five ICCAD 2012 benchmarks (scaled).
func DefaultSuiteConfig(seed int64) SuiteConfig { return iccad.DefaultSuiteConfig(seed) }

// SmallSuiteConfig is a miniature two-benchmark suite for quick runs.
func SmallSuiteConfig(seed int64) SuiteConfig { return iccad.SmallSuiteConfig(seed) }

// DefaultPatternStyle returns the balanced metal-layer style.
func DefaultPatternStyle() PatternStyle { return iccad.DefaultStyle() }

// GenerateChip synthesizes a full-chip layout for scanning experiments.
func GenerateChip(seed int64, edgeNM int, style PatternStyle) (*Layout, error) {
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
	// ConcatFeatures fuses several extractors.
	ConcatFeatures = features.Concat
)

// NewConcatFeatures fuses extractors in order.
func NewConcatFeatures(parts ...FeatureExtractor) *ConcatFeatures {
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
	// ScanConfig controls full-chip scanning.
	ScanConfig = core.ScanConfig
	// Finding is one flagged scan window.
	Finding = core.Finding
	// Ensemble combines detectors by voting.
	Ensemble = core.Ensemble

	// PMConfig parameterizes pattern matching.
	PMConfig = pm.Config
	// SVMConfig parameterizes the SVM detector.
	SVMConfig = svm.Config
	// BoostConfig parameterizes AdaBoost.
	BoostConfig = boost.Config
	// ForestConfig parameterizes the random forest.
	ForestConfig = dtree.ForestConfig
	// TreeConfig parameterizes a single decision tree.
	TreeConfig = dtree.TreeConfig
	// LogRegConfig parameterizes logistic regression.
	LogRegConfig = logreg.Config
	// TrainConfig parameterizes neural training.
	TrainConfig = nn.TrainConfig
	// CNNConfig describes the CNN topology.
	CNNConfig = nn.CNNConfig
	// NeuralDetector is the MLP/CNN detector type.
	NeuralDetector = core.NeuralDetector
)

// Kernel types for SVMConfig.
type (
	// LinearKernel is the dot-product kernel.
	LinearKernel = svm.Linear
	// RBFKernel is the Gaussian kernel.
	RBFKernel = svm.RBF
)

// NewPMDetector builds a pattern-matching detector.
func NewPMDetector(cfg PMConfig) Detector { return core.NewPMDetector(cfg) }

// NewSVMDetector builds an SVM detector over the extractor.
func NewSVMDetector(ex FeatureExtractor, cfg SVMConfig) Detector {
	return core.NewSVMDetector(ex, cfg)
}

// NewBoostDetector builds an AdaBoost detector over the extractor.
func NewBoostDetector(ex FeatureExtractor, cfg BoostConfig) Detector {
	return core.NewBoostDetector(ex, cfg)
}

// NewForestDetector builds a random-forest detector over the extractor.
func NewForestDetector(ex FeatureExtractor, cfg ForestConfig) Detector {
	return core.NewForestDetector(ex, cfg)
}

// NewLogRegDetector builds a logistic-regression detector over the
// extractor.
func NewLogRegDetector(ex FeatureExtractor, cfg LogRegConfig) Detector {
	return core.NewLogRegDetector(ex, cfg)
}

// NewMLPDetector builds the shallow neural baseline.
func NewMLPDetector(ex FeatureExtractor, hidden []int, cfg TrainConfig) *NeuralDetector {
	return core.NewMLPDetector(ex, hidden, cfg)
}

// NewCNNDetector builds the deep feature-tensor CNN detector.
func NewCNNDetector(ex *DCTFeatures, cnn CNNConfig, cfg TrainConfig, label string) *NeuralDetector {
	return core.NewCNNDetector(ex, cnn, cfg, label)
}

// NewEnsemble builds a majority-voting ensemble.
func NewEnsemble(members ...Detector) *Ensemble { return core.NewEnsemble(members...) }

// Routing (EPIC-style meta-classifier cascade).
type (
	// RouterDetector routes clips through a cheap→expensive detector
	// cascade by calibrated confidence.
	RouterDetector = router.Router
	// RouterStage is one rung of the cascade.
	RouterStage = router.Stage
	// RouterConfig parameterizes router fitting.
	RouterConfig = router.Config
	// RouterBand is the uncertainty band on a stage's confidence.
	RouterBand = router.Band
	// RouterDecision is the full routing outcome for one clip.
	RouterDecision = router.Decision
	// RouterStageStats snapshots one stage's routing counters.
	RouterStageStats = router.StageStats
)

// NewRouterDetector builds an unfitted routing cascade over stages
// (cheapest first; the final stage always answers).
func NewRouterDetector(name string, stages []RouterStage, cfg RouterConfig) *RouterDetector {
	return router.New(name, stages, cfg)
}

// FromSamples converts generator samples into evaluation clips.
func FromSamples(samples []Sample) []LabeledClip { return core.FromSamples(samples) }

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

// EvaluateSuite runs a detector factory across a whole suite.
func EvaluateSuite(factory func() Detector, suite *Suite, opt EvalOptions) ([]EvalResult, error) {
	return core.EvaluateSuite(factory, suite, opt)
}

// Scan slides a detector across a chip and returns flagged windows.
func Scan(chip *Layout, det Detector, cfg ScanConfig) ([]Finding, error) {
	return core.Scan(chip, det, cfg)
}

// Fault-tolerant distributed scanning (internal/scanfarm): the shard
// coordinator behind `hsdscan -workers/-journal/-resume/-cache-size`.
type (
	// ScanFarmConfig tunes the shard coordinator: window geometry,
	// worker pool, per-shard retry/quarantine policy, clip cache, and
	// the resumable journal.
	ScanFarmConfig = scanfarm.Config
	// ScanFarmResult is the deterministically merged outcome, including
	// quarantined shards and clip-cache statistics.
	ScanFarmResult = scanfarm.Result
	// ScanQuarantine describes one poison shard the scan gave up on.
	ScanQuarantine = scanfarm.Quarantine
	// ScanJournal is the framed-CRC32 append-only record of completed
	// shards behind resumable scans.
	ScanJournal = scanfarm.Journal
	// ScanJournalMeta binds a journal file to one specific scan.
	ScanJournalMeta = scanfarm.Meta
	// ScanShardRecord is one journaled shard outcome.
	ScanShardRecord = scanfarm.ShardRecord
	// ClipCacheStats snapshots content-addressed clip-cache
	// effectiveness.
	ClipCacheStats = scanfarm.CacheStats
	// ClipFingerprint is the translation-invariant content hash keying
	// the clip cache.
	ClipFingerprint = layout.Fingerprint
)

// ScanFarm scans the chip through the fault-tolerant shard coordinator:
// deterministic findings regardless of schedule, poison shards
// quarantined instead of failing the run, resumable via the journal,
// and repeated geometry answered from the clip cache. Use it instead of
// Scan when a partial failure must not discard the run.
func ScanFarm(ctx context.Context, chip *Layout, det Detector, cfg ScanFarmConfig) (ScanFarmResult, error) {
	return scanfarm.Run(ctx, chip, det, cfg)
}

// CreateScanJournal starts a fresh scan journal at path.
func CreateScanJournal(path string, meta ScanJournalMeta) (*ScanJournal, error) {
	return scanfarm.CreateJournal(path, meta)
}

// ResumeScanJournal validates and reopens a scan journal, returning the
// intact shard records to pass as ScanFarmConfig.Completed.
func ResumeScanJournal(path string, meta ScanJournalMeta) (*ScanJournal, map[int]ScanShardRecord, error) {
	return scanfarm.ResumeJournal(path, meta)
}

// Operational telemetry.
type (
	// MetricsRegistry collects operational counters, gauges, and latency
	// histograms; pass one as ScanFarmConfig.Metrics to observe a scan,
	// and render it with WritePrometheus or Snapshot.
	MetricsRegistry = telemetry.Registry
	// MetricsSnapshot is one metric series of a registry snapshot.
	MetricsSnapshot = telemetry.SeriesSnapshot
	// SimStats is a Simulator's cumulative oracle usage: the measured
	// ODST verification term.
	SimStats = lithosim.SimStats
)

// NewMetricsRegistry constructs an empty telemetry registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// Metrics.
type (
	// Confusion is a binary confusion matrix.
	Confusion = metrics.Confusion
	// ROCPoint is one operating point of a threshold sweep.
	ROCPoint = metrics.ROCPoint
)

// ROC computes the ROC curve and AUC of scores against labels.
func ROC(scores []float64, labels []int) ([]ROCPoint, float64, error) {
	return metrics.ROC(scores, labels)
}

// SaveNetwork serializes a trained neural detector's network.
func SaveNetwork(w io.Writer, d *NeuralDetector) error {
	if d.Network() == nil {
		return errNotFitted
	}
	return nn.Save(w, d.Network())
}

// SaveNetworkFile writes a trained neural detector's network to path
// crash-safely: temp file in the same directory, fsync, atomic rename.
// A crash mid-save leaves the previous file (or nothing) intact.
func SaveNetworkFile(path string, d *NeuralDetector) error {
	if d.Network() == nil {
		return errNotFitted
	}
	return nn.SaveFile(path, d.Network())
}

var errNotFitted = errNotFittedError{}

type errNotFittedError struct{}

func (errNotFittedError) Error() string { return "hsd: detector is not fitted" }
