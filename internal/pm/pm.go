// Package pm implements pattern-matching hotspot detection, the
// pre-machine-learning baseline the survey starts from: a library of known
// hotspot patterns is matched against candidate clips, exactly or fuzzily
// (within a Hamming-distance tolerance on the binarized raster).
//
// Pattern matching has near-zero false alarms on known patterns but
// cannot generalize to unseen hotspot topologies, which is precisely the
// weakness that motivated learning-based detectors.
package pm

import (
	"errors"
	"fmt"
	"math/bits"

	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/raster"
)

// Config parameterizes the matcher.
type Config struct {
	// GridPx is the pattern raster resolution per side (default 32).
	GridPx int
	// Tol is the Hamming tolerance in pixels: a clip within Tol bits of
	// any library pattern matches. 0 means exact matching (default 0).
	Tol int
	// Mirror adds the X/Y mirror images of every library pattern,
	// exploiting the mirror symmetry of optics.
	Mirror bool
}

func (c *Config) normalize() error {
	if c.GridPx <= 0 {
		c.GridPx = 32
	}
	if c.Tol < 0 {
		return fmt.Errorf("pm: negative tolerance %d", c.Tol)
	}
	return nil
}

// bitset is a fixed-size bit vector.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i/64] |= 1 << (i % 64) }

func (b bitset) hamming(o bitset) int {
	d := 0
	for i := range b {
		d += bits.OnesCount64(b[i] ^ o[i])
	}
	return d
}

// Library is a trained pattern matcher.
type Library struct {
	cfg      Config
	patterns []bitset
	bitsets  int // pixels per pattern
}

// New constructs an empty library.
func New(cfg Config) (*Library, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	return &Library{cfg: cfg, bitsets: cfg.GridPx * cfg.GridPx}, nil
}

// rasterizeClip converts a clip into a GridPx x GridPx bitset.
func (l *Library) rasterizeClip(clip layout.Clip) (bitset, error) {
	if clip.Window.Empty() {
		return nil, errors.New("pm: empty clip window")
	}
	side := clip.Window.Dx()
	if clip.Window.Dy() != side {
		return nil, fmt.Errorf("pm: clip window %v is not square", clip.Window)
	}
	px := side / l.cfg.GridPx
	if px <= 0 || side%l.cfg.GridPx != 0 {
		return nil, fmt.Errorf("pm: window side %d not divisible by grid %d", side, l.cfg.GridPx)
	}
	im, err := raster.Rasterize(raster.Config{Window: clip.Window, PixelNM: px}, clip.Shapes)
	if err != nil {
		return nil, fmt.Errorf("pm: rasterize: %w", err)
	}
	bs := newBitset(l.bitsets)
	for i, v := range im.Pix {
		if v >= 0.5 {
			bs.set(i)
		}
	}
	return bs, nil
}

// mirrorBits returns the horizontal and vertical mirror images of p.
func (l *Library) mirrorBits(p bitset) (bitset, bitset) {
	g := l.cfg.GridPx
	mx, my := newBitset(l.bitsets), newBitset(l.bitsets)
	for y := 0; y < g; y++ {
		for x := 0; x < g; x++ {
			if p[(y*g+x)/64]&(1<<((y*g+x)%64)) != 0 {
				mx.set(y*g + (g - 1 - x))
				my.set((g-1-y)*g + x)
			}
		}
	}
	return mx, my
}

// AddHotspot inserts one known hotspot clip into the library.
func (l *Library) AddHotspot(clip layout.Clip) error {
	bs, err := l.rasterizeClip(clip)
	if err != nil {
		return err
	}
	l.patterns = append(l.patterns, bs)
	if l.cfg.Mirror {
		mx, my := l.mirrorBits(bs)
		l.patterns = append(l.patterns, mx, my)
	}
	return nil
}

// Size returns the number of stored patterns (including mirrors).
func (l *Library) Size() int { return len(l.patterns) }

// MinDistance returns the smallest Hamming distance from the clip to any
// library pattern, or an error when the clip cannot be rasterized. An
// empty library returns the maximum distance (total pixel count).
func (l *Library) MinDistance(clip layout.Clip) (int, error) {
	bs, err := l.rasterizeClip(clip)
	if err != nil {
		return 0, err
	}
	best := l.bitsets
	for _, p := range l.patterns {
		if d := bs.hamming(p); d < best {
			best = d
			if best == 0 {
				break
			}
		}
	}
	return best, nil
}

// Score returns a hotspot likelihood in [0, 1]: 1 for an exact library
// match, decreasing with Hamming distance.
func (l *Library) Score(clip layout.Clip) (float64, error) {
	d, err := l.MinDistance(clip)
	if err != nil {
		return 0, err
	}
	return 1 - float64(d)/float64(l.bitsets), nil
}
