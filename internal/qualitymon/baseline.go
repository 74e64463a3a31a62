// The training-time baseline: the reference score distribution drift is
// measured against. hsdtrain writes one as a sidecar next to the saved
// model (<model>.qb); the registry installs it on every hot reload so
// the drift reference always matches the live generation. The file is
// one framelog frame, written atomically, so a torn write is detected,
// never half-loaded (DESIGN.md "On-disk formats").

package qualitymon

import (
	"fmt"
	"math"
	"sort"

	"github.com/golitho/hsd/internal/framelog"
)

// baselineFormat is the quality-baseline file format.
var baselineFormat = framelog.File[Baseline]{Magic: "HSDQBv2\n"}

// BaselineEntry is the reference distribution for one (detector, stage)
// series: shared bin edges plus the training-split bin counts.
type BaselineEntry struct {
	Detector string
	Stage    string
	Edges    []float64 // sorted upper bounds; len(Counts) = len(Edges)+1
	Counts   []int64
}

// Baseline is the persisted snapshot: every series the trainer scored.
type Baseline struct {
	Entries []BaselineEntry
}

// SidecarPath is where a model's quality baseline lives: next to the
// model file, so the pair travels (and reloads) together.
func SidecarPath(modelPath string) string { return modelPath + ".qb" }

// NewBaselineEntry bins scores into an equi-width histogram with bins-1
// interior edges spanning the observed range. Scores are sorted before
// binning so the entry is independent of input order.
func NewBaselineEntry(detector, stage string, scores []float64, bins int) BaselineEntry {
	if bins < 2 {
		bins = SketchBins
	}
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	lo, hi := 0.0, 1.0
	if len(sorted) > 0 {
		lo, hi = sorted[0], sorted[len(sorted)-1]
	}
	if !(hi > lo) { // degenerate or empty: synthesize a unit span
		hi = lo + 1
	}
	edges := make([]float64, bins-1)
	for i := range edges {
		edges[i] = lo + (hi-lo)*float64(i+1)/float64(bins)
	}
	counts := make([]int64, bins)
	for _, v := range sorted {
		counts[sort.SearchFloat64s(edges, v)]++
	}
	return BaselineEntry{Detector: detector, Stage: stage, Edges: edges, Counts: counts}
}

// Sort orders entries by (detector, stage) so a saved baseline is
// deterministic regardless of how the trainer accumulated them.
func (b *Baseline) Sort() {
	sort.Slice(b.Entries, func(i, j int) bool {
		if b.Entries[i].Detector != b.Entries[j].Detector {
			return b.Entries[i].Detector < b.Entries[j].Detector
		}
		return b.Entries[i].Stage < b.Entries[j].Stage
	})
}

func (b *Baseline) validate() error {
	for _, e := range b.Entries {
		if len(e.Counts) != len(e.Edges)+1 {
			return fmt.Errorf("qualitymon: baseline entry %s/%s: %d counts for %d edges",
				e.Detector, e.Stage, len(e.Counts), len(e.Edges))
		}
		if !sort.Float64sAreSorted(e.Edges) {
			return fmt.Errorf("qualitymon: baseline entry %s/%s: edges not sorted", e.Detector, e.Stage)
		}
		for _, v := range e.Edges {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("qualitymon: baseline entry %s/%s: non-finite edge", e.Detector, e.Stage)
			}
		}
	}
	return nil
}

// SaveBaselineFile writes the baseline to path crash-safely (temp file,
// fsync, atomic rename), entries sorted.
func SaveBaselineFile(path string, b *Baseline) error {
	cp := *b
	cp.Sort()
	if err := cp.validate(); err != nil {
		return err
	}
	return baselineFormat.Save(path, cp)
}

// LoadBaselineFile reads path, rejecting torn, truncated, or bit-flipped
// files before their payload is decoded. A missing file's error wraps
// fs.ErrNotExist.
func LoadBaselineFile(path string) (*Baseline, error) {
	b, err := baselineFormat.Load(path)
	if err != nil {
		return nil, fmt.Errorf("qualitymon: %w", err)
	}
	if err := b.validate(); err != nil {
		return nil, fmt.Errorf("qualitymon: load %s: %w", path, err)
	}
	return &b, nil
}
