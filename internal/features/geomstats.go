package features

import (
	"context"
	"math"

	"github.com/golitho/hsd/internal/layout"
)

// GeomStats is the hand-crafted geometric feature family of shallow
// hotspot detectors: histograms of drawn critical dimensions (feature
// widths and inter-feature spacings) plus summary scalars, computed for
// the whole window and again restricted to the scored core.
//
// The survey's framing: shallow learning lives or dies by this kind of
// ad-hoc feature engineering, while deep models learn their features.
type GeomStats struct{}

var _ Extractor = (*GeomStats)(nil)

// geomBuckets are the histogram edges in nanometres, concentrated around
// the lithographically critical 40-90 nm region.
var geomBuckets = []int{40, 48, 56, 64, 72, 88, 112, 160}

// Name implements Extractor.
func (g *GeomStats) Name() string { return "geomstats" }

// Dim implements Extractor.
func (g *GeomStats) Dim() int {
	// widths + gaps histograms, window and core scopes, plus 6 scalars.
	return 2*2*(len(geomBuckets)+1) + 6
}

// bucketOf returns the histogram bin for a dimension d.
func bucketOf(d int) int {
	for i, edge := range geomBuckets {
		if d < edge {
			return i
		}
	}
	return len(geomBuckets)
}

// ExtractCtx implements Extractor. GeomStats reads the shapes, not a
// raster, so it records no spans.
func (g *GeomStats) ExtractCtx(_ context.Context, clip layout.Clip) ([]float64, error) {
	return g.Extract(clip)
}

// Extract implements Extractor.
func (g *GeomStats) Extract(clip layout.Clip) ([]float64, error) {
	nb := len(geomBuckets) + 1
	widthsWin := make([]float64, nb)
	widthsCore := make([]float64, nb)
	gapsWin := make([]float64, nb)
	gapsCore := make([]float64, nb)

	minWidthCore, minGapCore := math.Inf(1), math.Inf(1)

	for i, r := range clip.Shapes {
		w := min(r.Dx(), r.Dy())
		widthsWin[bucketOf(w)]++
		if r.Overlaps(clip.Core) {
			widthsCore[bucketOf(w)]++
			if float64(w) < minWidthCore {
				minWidthCore = float64(w)
			}
		}
		for j := i + 1; j < len(clip.Shapes); j++ {
			o := clip.Shapes[j]
			d2 := r.DistanceSq(o)
			if d2 == 0 {
				continue // drawn-connected
			}
			d := int(math.Sqrt(float64(d2)))
			if d >= 256 {
				continue // far pairs carry no lithographic interaction
			}
			gapsWin[bucketOf(d)]++
			// A gap is core-relevant when the midpoint region between
			// the two shapes touches the core.
			mid := r.Union(o).Intersect(clip.Core)
			if !mid.Empty() {
				gapsCore[bucketOf(d)]++
				if float64(d) < minGapCore {
					minGapCore = float64(d)
				}
			}
		}
	}

	// Normalize histogram mass so feature scale is stable across pattern
	// densities.
	normalize := func(h []float64) {
		var s float64
		for _, v := range h {
			s += v
		}
		if s > 0 {
			for i := range h {
				h[i] /= s
			}
		}
	}
	normalize(widthsWin)
	normalize(widthsCore)
	normalize(gapsWin)
	normalize(gapsCore)

	if math.IsInf(minWidthCore, 1) {
		minWidthCore = 256
	}
	if math.IsInf(minGapCore, 1) {
		minGapCore = 256
	}

	out := make([]float64, 0, g.Dim())
	out = append(out, widthsWin...)
	out = append(out, widthsCore...)
	out = append(out, gapsWin...)
	out = append(out, gapsCore...)
	out = append(out,
		clip.Density(),
		coreDensity(clip),
		float64(len(clip.Shapes))/64,
		minWidthCore/256,
		minGapCore/256,
		boundaryShapeFrac(clip),
	)
	return out, nil
}

// coreDensity is the drawn-area fraction of the core region.
func coreDensity(clip layout.Clip) float64 {
	if clip.Core.Empty() {
		return 0
	}
	var covered int64
	for _, s := range clip.Shapes {
		covered += s.Intersect(clip.Core).Area()
	}
	return float64(covered) / float64(clip.Core.Area())
}

// boundaryShapeFrac is the fraction of shapes clipped by the window edge,
// a proxy for how much context the window truncates.
func boundaryShapeFrac(clip layout.Clip) float64 {
	if len(clip.Shapes) == 0 {
		return 0
	}
	inner := clip.Window.Expand(-1)
	n := 0
	for _, s := range clip.Shapes {
		if !inner.ContainsRect(s) {
			n++
		}
	}
	return float64(n) / float64(len(clip.Shapes))
}
