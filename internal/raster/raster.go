// Package raster converts rectilinear layout geometry into pixel images.
//
// The lithography simulator and all image-based feature extractors consume
// the area-accurate grayscale Image produced here; classifiers that want a
// binary view threshold it into a Mask. Pixels are square with an edge
// length of an integer number of database units (nanometres).
package raster

import (
	"fmt"

	"github.com/golitho/hsd/internal/geom"
)

// Image is a dense grayscale raster with values in [0, 1] representing the
// fraction of each pixel covered by layout shapes. Pixel (x, y) maps to
// index y*W + x; y grows upward together with layout coordinates.
type Image struct {
	W, H int
	Pix  []float64
}

// NewImage returns a zeroed W x H image.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]float64, w*h)}
}

// At returns the pixel value at (x, y). Out-of-range coordinates return 0.
func (im *Image) At(x, y int) float64 {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return 0
	}
	return im.Pix[y*im.W+x]
}

// Set assigns the pixel at (x, y); out-of-range coordinates are ignored.
func (im *Image) Set(x, y int, v float64) {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return
	}
	im.Pix[y*im.W+x] = v
}

// Clone returns a deep copy of im.
func (im *Image) Clone() *Image {
	out := &Image{W: im.W, H: im.H, Pix: make([]float64, len(im.Pix))}
	copy(out.Pix, im.Pix)
	return out
}

// Sum returns the total of all pixel values (the covered area in pixels).
func (im *Image) Sum() float64 {
	var s float64
	for _, v := range im.Pix {
		s += v
	}
	return s
}

// Threshold returns the binary mask of pixels with value >= t.
func (im *Image) Threshold(t float64) *Mask {
	m := new(Mask)
	im.ThresholdInto(m, t)
	return m
}

// ThresholdInto is Threshold into a caller-owned mask: m is resized to
// the image (its pixel buffer is reused when large enough) and every
// pixel is written.
func (im *Image) ThresholdInto(m *Mask, t float64) {
	if cap(m.Pix) < len(im.Pix) {
		m.Pix = make([]uint8, len(im.Pix))
	}
	pix := m.Pix[:len(im.Pix)]
	m.W, m.H, m.Pix = im.W, im.H, pix
	for i, v := range im.Pix {
		var bit uint8
		if v >= t {
			bit = 1
		}
		pix[i] = bit
	}
}

// Mask is a dense binary raster; Pix values are 0 or 1.
type Mask struct {
	W, H int
	Pix  []uint8
}

// NewMask returns a zeroed W x H mask.
func NewMask(w, h int) *Mask {
	return &Mask{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the bit at (x, y); out-of-range coordinates return 0.
func (m *Mask) At(x, y int) uint8 {
	if x < 0 || y < 0 || x >= m.W || y >= m.H {
		return 0
	}
	return m.Pix[y*m.W+x]
}

// Set assigns the bit at (x, y); out-of-range coordinates are ignored.
func (m *Mask) Set(x, y int, v uint8) {
	if x < 0 || y < 0 || x >= m.W || y >= m.H {
		return
	}
	m.Pix[y*m.W+x] = v
}

// Count returns the number of set bits.
func (m *Mask) Count() int {
	n := 0
	for _, v := range m.Pix {
		if v != 0 {
			n++
		}
	}
	return n
}

// Config controls rasterization of a layout window.
type Config struct {
	// Window is the layout region to rasterize, in database units.
	Window geom.Rect
	// PixelNM is the pixel edge length in database units; must be > 0 and
	// should divide the window dimensions for exact coverage.
	PixelNM int
}

// Validate reports whether c is usable.
func (c Config) Validate() error {
	if c.PixelNM <= 0 {
		return fmt.Errorf("raster: PixelNM must be positive, got %d", c.PixelNM)
	}
	if c.Window.Empty() {
		return fmt.Errorf("raster: empty window %v", c.Window)
	}
	return nil
}

// Rasterize renders the given shapes clipped to c.Window into an
// area-accurate grayscale image. Overlapping shapes saturate at 1.
func Rasterize(c Config, shapes []geom.Rect) (*Image, error) {
	im := new(Image)
	if err := RasterizeInto(im, c, shapes); err != nil {
		return nil, err
	}
	return im, nil
}

// RasterizeInto is Rasterize into a caller-owned image: im is resized to
// the window (its pixel buffer is reused when large enough), cleared, and
// rendered, so whatever it held before cannot show through. On error im
// is left as it was.
func RasterizeInto(im *Image, c Config, shapes []geom.Rect) error {
	if err := c.Validate(); err != nil {
		return err
	}
	w := ceilDiv(c.Window.Dx(), c.PixelNM)
	h := ceilDiv(c.Window.Dy(), c.PixelNM)
	if cap(im.Pix) < w*h {
		im.Pix = make([]float64, w*h)
	} else {
		im.Pix = im.Pix[:w*h]
		clear(im.Pix)
	}
	im.W, im.H = w, h
	pxArea := float64(c.PixelNM) * float64(c.PixelNM)

	for _, s := range shapes {
		s = s.Intersect(c.Window)
		if s.Empty() {
			continue
		}
		// Shape coordinates relative to the window origin.
		rx0 := s.Min.X - c.Window.Min.X
		ry0 := s.Min.Y - c.Window.Min.Y
		rx1 := s.Max.X - c.Window.Min.X
		ry1 := s.Max.Y - c.Window.Min.Y
		px0, px1 := rx0/c.PixelNM, ceilDiv(rx1, c.PixelNM)
		py0, py1 := ry0/c.PixelNM, ceilDiv(ry1, c.PixelNM)
		for py := py0; py < py1; py++ {
			// Vertical overlap of the shape with this pixel row.
			cy0 := max(ry0, py*c.PixelNM)
			cy1 := min(ry1, (py+1)*c.PixelNM)
			dy := float64(cy1 - cy0)
			row := py * w
			for px := px0; px < px1; px++ {
				cx0 := max(rx0, px*c.PixelNM)
				cx1 := min(rx1, (px+1)*c.PixelNM)
				frac := float64(cx1-cx0) * dy / pxArea
				v := im.Pix[row+px] + frac
				if v > 1 {
					v = 1
				}
				im.Pix[row+px] = v
			}
		}
	}
	return nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
