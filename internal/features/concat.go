package features

import (
	"context"
	"fmt"
	"strings"

	"github.com/golitho/hsd/internal/layout"
)

// Concat fuses several extractors into one feature vector, in order.
// Shallow learners benefit from mixing global (density) and radial (CCAS)
// views of the same clip.
type Concat struct {
	Parts []Extractor
}

var _ Extractor = (*Concat)(nil)

// NewConcat builds a concatenated extractor.
func NewConcat(parts ...Extractor) *Concat { return &Concat{Parts: parts} }

// Name implements Extractor.
func (c *Concat) Name() string {
	names := make([]string, len(c.Parts))
	for i, p := range c.Parts {
		names[i] = p.Name()
	}
	return strings.Join(names, "+")
}

// Dim implements Extractor.
func (c *Concat) Dim() int {
	d := 0
	for _, p := range c.Parts {
		d += p.Dim()
	}
	return d
}

// Extract implements Extractor.
func (c *Concat) Extract(clip layout.Clip) ([]float64, error) {
	return c.ExtractCtx(context.Background(), clip)
}

// ExtractCtx implements Extractor: each part extracts under the same
// context, so a fused extractor attributes one raster/features span pair
// per part that rasterizes.
func (c *Concat) ExtractCtx(ctx context.Context, clip layout.Clip) ([]float64, error) {
	if len(c.Parts) == 0 {
		return nil, fmt.Errorf("features: concat has no parts")
	}
	out := make([]float64, 0, c.Dim())
	for _, p := range c.Parts {
		v, err := p.ExtractCtx(ctx, clip)
		if err != nil {
			return nil, fmt.Errorf("features: concat part %s: %w", p.Name(), err)
		}
		out = append(out, v...)
	}
	return out, nil
}
