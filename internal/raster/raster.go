// Package raster converts rectilinear layout geometry into pixel images.
//
// The lithography simulator and all image-based feature extractors consume
// the area-accurate grayscale Image produced here; classifiers that want a
// binary view threshold it into a Mask. Pixels are square with an edge
// length of an integer number of database units (nanometres).
package raster

import (
	"fmt"
	"math"

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

// MirrorX returns im reflected horizontally (left-right flip).
func (im *Image) MirrorX() *Image {
	out := NewImage(im.W, im.H)
	for y := 0; y < im.H; y++ {
		row := y * im.W
		for x := 0; x < im.W; x++ {
			out.Pix[row+x] = im.Pix[row+im.W-1-x]
		}
	}
	return out
}

// MirrorY returns im reflected vertically (top-bottom flip).
func (im *Image) MirrorY() *Image {
	out := NewImage(im.W, im.H)
	for y := 0; y < im.H; y++ {
		copy(out.Pix[y*im.W:(y+1)*im.W], im.Pix[(im.H-1-y)*im.W:(im.H-y)*im.W])
	}
	return out
}

// Rotate90 returns im rotated 90 degrees counter-clockwise. The result has
// swapped dimensions.
func (im *Image) Rotate90() *Image {
	out := NewImage(im.H, im.W)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			// (x, y) -> (y, W-1-x) in the rotated frame.
			out.Pix[(im.W-1-x)*out.W+y] = im.Pix[y*im.W+x]
		}
	}
	return out
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

// Hamming returns the number of positions where m and o differ. Masks of
// different dimensions have infinite distance, reported as m.W*m.H + o.W*o.H.
func (m *Mask) Hamming(o *Mask) int {
	if m.W != o.W || m.H != o.H {
		return m.W*m.H + o.W*o.H
	}
	d := 0
	for i := range m.Pix {
		if m.Pix[i] != o.Pix[i] {
			d++
		}
	}
	return d
}

// Float converts the mask to a grayscale image with values 0 or 1.
func (m *Mask) Float() *Image {
	im := NewImage(m.W, m.H)
	for i, v := range m.Pix {
		if v != 0 {
			im.Pix[i] = 1
		}
	}
	return im
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

// Downsample reduces im by an integer factor using box averaging. The image
// dimensions must be divisible by factor.
func Downsample(im *Image, factor int) (*Image, error) {
	if factor <= 0 || im.W%factor != 0 || im.H%factor != 0 {
		return nil, fmt.Errorf("raster: cannot downsample %dx%d by %d", im.W, im.H, factor)
	}
	out := NewImage(im.W/factor, im.H/factor)
	inv := 1 / float64(factor*factor)
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			var s float64
			for dy := 0; dy < factor; dy++ {
				row := (y*factor + dy) * im.W
				for dx := 0; dx < factor; dx++ {
					s += im.Pix[row+x*factor+dx]
				}
			}
			out.Pix[y*out.W+x] = s * inv
		}
	}
	return out, nil
}

// MSE returns the mean squared error between two equally sized images,
// or +Inf if the dimensions differ.
func MSE(a, b *Image) float64 {
	if a.W != b.W || a.H != b.H {
		return math.Inf(1)
	}
	var s float64
	for i := range a.Pix {
		d := a.Pix[i] - b.Pix[i]
		s += d * d
	}
	return s / float64(len(a.Pix))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
