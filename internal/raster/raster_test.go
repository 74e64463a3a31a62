package raster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/golitho/hsd/internal/geom"
)

func TestRasterizeFullCoverage(t *testing.T) {
	c := Config{Window: geom.R(0, 0, 100, 100), PixelNM: 10}
	im, err := Rasterize(c, []geom.Rect{geom.R(0, 0, 100, 100)})
	if err != nil {
		t.Fatal(err)
	}
	if im.W != 10 || im.H != 10 {
		t.Fatalf("dims = %dx%d, want 10x10", im.W, im.H)
	}
	for i, v := range im.Pix {
		if v != 1 {
			t.Fatalf("pixel %d = %v, want 1", i, v)
		}
	}
}

func TestRasterizePartialPixel(t *testing.T) {
	c := Config{Window: geom.R(0, 0, 20, 20), PixelNM: 10}
	// A 5x10 shape covers half of pixel (0,0).
	im, err := Rasterize(c, []geom.Rect{geom.R(0, 0, 5, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if got := im.At(0, 0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("pixel (0,0) = %v, want 0.5", got)
	}
	if got := im.At(1, 0); got != 0 {
		t.Fatalf("pixel (1,0) = %v, want 0", got)
	}
}

func TestRasterizeAreaConservation(t *testing.T) {
	c := Config{Window: geom.R(0, 0, 640, 640), PixelNM: 8}
	shapes := []geom.Rect{
		geom.R(13, 27, 200, 61),
		geom.R(300, 100, 350, 500),
		geom.R(7, 500, 633, 551),
	}
	im, err := Rasterize(c, shapes)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, s := range shapes {
		want += float64(s.Area())
	}
	got := im.Sum() * float64(c.PixelNM) * float64(c.PixelNM)
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("rasterized area = %v, want %v", got, want)
	}
}

func TestRasterizeOverlapSaturates(t *testing.T) {
	c := Config{Window: geom.R(0, 0, 10, 10), PixelNM: 10}
	im, err := Rasterize(c, []geom.Rect{geom.R(0, 0, 10, 10), geom.R(0, 0, 10, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if got := im.At(0, 0); got != 1 {
		t.Fatalf("overlapping coverage = %v, want 1", got)
	}
}

func TestRasterizeClipsToWindow(t *testing.T) {
	c := Config{Window: geom.R(100, 100, 200, 200), PixelNM: 10}
	im, err := Rasterize(c, []geom.Rect{geom.R(0, 0, 150, 150)})
	if err != nil {
		t.Fatal(err)
	}
	// Covered region inside window: [100,150)x[100,150) = 50x50 nm = 25 px.
	if got := im.Sum(); math.Abs(got-25) > 1e-9 {
		t.Fatalf("sum = %v, want 25", got)
	}
}

func TestRasterizeBadConfig(t *testing.T) {
	if _, err := Rasterize(Config{Window: geom.R(0, 0, 10, 10)}, nil); err == nil {
		t.Fatal("zero PixelNM accepted")
	}
	if _, err := Rasterize(Config{Window: geom.Rect{}, PixelNM: 4}, nil); err == nil {
		t.Fatal("empty window accepted")
	}
}

func TestMirrorInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	im := NewImage(13, 9)
	for i := range im.Pix {
		im.Pix[i] = rng.Float64()
	}
	mx := im.MirrorX().MirrorX()
	my := im.MirrorY().MirrorY()
	for i := range im.Pix {
		if im.Pix[i] != mx.Pix[i] || im.Pix[i] != my.Pix[i] {
			t.Fatal("mirror twice is not identity")
		}
	}
}

func TestRotate90FourTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	im := NewImage(7, 11)
	for i := range im.Pix {
		im.Pix[i] = rng.Float64()
	}
	r := im.Rotate90()
	if r.W != im.H || r.H != im.W {
		t.Fatalf("rotated dims = %dx%d", r.W, r.H)
	}
	r4 := r.Rotate90().Rotate90().Rotate90()
	for i := range im.Pix {
		if im.Pix[i] != r4.Pix[i] {
			t.Fatal("four rotations are not identity")
		}
	}
}

func TestRotatePreservesSum(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func() bool {
		im := NewImage(1+rng.Intn(16), 1+rng.Intn(16))
		for i := range im.Pix {
			im.Pix[i] = rng.Float64()
		}
		return math.Abs(im.Rotate90().Sum()-im.Sum()) < 1e-9 &&
			math.Abs(im.MirrorX().Sum()-im.Sum()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdAndMask(t *testing.T) {
	im := NewImage(2, 2)
	im.Pix = []float64{0.2, 0.5, 0.7, 0.49}
	m := im.Threshold(0.5)
	want := []uint8{0, 1, 1, 0}
	for i := range want {
		if m.Pix[i] != want[i] {
			t.Fatalf("mask[%d] = %d, want %d", i, m.Pix[i], want[i])
		}
	}
	if m.Count() != 2 {
		t.Fatalf("Count = %d, want 2", m.Count())
	}

	// ThresholdInto reuses a larger mask's buffer and leaves nothing of
	// what it held.
	reused := &Mask{W: 3, H: 3, Pix: []uint8{1, 1, 1, 1, 1, 1, 1, 1, 1}}
	buf := &reused.Pix[0]
	im.ThresholdInto(reused, 0.5)
	if reused.W != 2 || reused.H != 2 || string(reused.Pix) != string(want) || &reused.Pix[0] != buf {
		t.Fatalf("ThresholdInto over a used mask = %dx%d %v (reallocated: %v), want 2x2 %v in place",
			reused.W, reused.H, reused.Pix, &reused.Pix[0] != buf, want)
	}
}

func TestMaskHamming(t *testing.T) {
	a, b := NewMask(3, 3), NewMask(3, 3)
	a.Set(0, 0, 1)
	b.Set(2, 2, 1)
	if d := a.Hamming(b); d != 2 {
		t.Fatalf("Hamming = %d, want 2", d)
	}
	if d := a.Hamming(a); d != 0 {
		t.Fatalf("self Hamming = %d, want 0", d)
	}
	c := NewMask(2, 2)
	if d := a.Hamming(c); d != 9+4 {
		t.Fatalf("dim-mismatch Hamming = %d, want 13", d)
	}
}

func TestDownsample(t *testing.T) {
	im := NewImage(4, 4)
	for i := range im.Pix {
		im.Pix[i] = 1
	}
	out, err := Downsample(im, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.W != 2 || out.H != 2 {
		t.Fatalf("dims = %dx%d", out.W, out.H)
	}
	for _, v := range out.Pix {
		if v != 1 {
			t.Fatalf("downsampled value = %v, want 1", v)
		}
	}
	if _, err := Downsample(im, 3); err == nil {
		t.Fatal("non-divisible factor accepted")
	}
}

func TestMSE(t *testing.T) {
	a, b := NewImage(2, 1), NewImage(2, 1)
	a.Pix = []float64{1, 0}
	b.Pix = []float64{0, 0}
	if got := MSE(a, b); got != 0.5 {
		t.Fatalf("MSE = %v, want 0.5", got)
	}
	if !math.IsInf(MSE(a, NewImage(3, 1)), 1) {
		t.Fatal("dimension mismatch should be +Inf")
	}
}

func TestImageAtSetBounds(t *testing.T) {
	im := NewImage(2, 2)
	im.Set(-1, 0, 5)
	im.Set(0, 99, 5)
	if im.Sum() != 0 {
		t.Fatal("out-of-range Set wrote data")
	}
	if im.At(-1, -1) != 0 || im.At(2, 0) != 0 {
		t.Fatal("out-of-range At returned nonzero")
	}
}

func TestMaskFloatAndImageClone(t *testing.T) {
	m := NewMask(2, 2)
	m.Set(1, 1, 1)
	im := m.Float()
	if im.At(1, 1) != 1 || im.At(0, 0) != 0 {
		t.Fatal("Float conversion wrong")
	}
	c := im.Clone()
	c.Set(0, 0, 0.7)
	if im.At(0, 0) != 0 {
		t.Fatal("Clone shares backing storage")
	}
}

func TestMaskSetOutOfRangeIgnored(t *testing.T) {
	m := NewMask(2, 2)
	m.Set(-1, 0, 1)
	m.Set(5, 5, 1)
	if m.Count() != 0 {
		t.Fatal("out-of-range Set wrote bits")
	}
	if m.At(-1, 0) != 0 || m.At(9, 9) != 0 {
		t.Fatal("out-of-range At nonzero")
	}
}

func TestRasterizeManyOverlappingShapes(t *testing.T) {
	c := Config{Window: geom.R(0, 0, 64, 64), PixelNM: 8}
	shapes := make([]geom.Rect, 50)
	for i := range shapes {
		shapes[i] = geom.R(0, 0, 64, 64)
	}
	im, err := Rasterize(c, shapes)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range im.Pix {
		if v != 1 {
			t.Fatalf("saturation failed: %v", v)
		}
	}
}

// TestRasterizeIntoReusesAndClears: one image carried through a full
// window, an empty one, a larger one, a smaller one and a refused config
// always equals a fresh Rasterize, and keeps its buffer when it fits.
func TestRasterizeIntoReusesAndClears(t *testing.T) {
	full := []geom.Rect{geom.R(0, 0, 400, 400)}
	var im Image
	for i, step := range []struct {
		c      Config
		shapes []geom.Rect
	}{
		{Config{Window: geom.R(0, 0, 100, 100), PixelNM: 10}, full},
		{Config{Window: geom.R(0, 0, 100, 100), PixelNM: 10}, nil},
		{Config{Window: geom.R(0, 0, 400, 200), PixelNM: 10}, []geom.Rect{geom.R(15, 15, 390, 42)}},
		{Config{Window: geom.R(50, 50, 90, 110), PixelNM: 20}, full},
	} {
		fits := cap(im.Pix) >= ceilDiv(step.c.Window.Dx(), step.c.PixelNM)*ceilDiv(step.c.Window.Dy(), step.c.PixelNM)
		first := backing(im.Pix)
		if err := RasterizeInto(&im, step.c, step.shapes); err != nil {
			t.Fatal(err)
		}
		want, err := Rasterize(step.c, step.shapes)
		if err != nil {
			t.Fatal(err)
		}
		if im.W != want.W || im.H != want.H || len(im.Pix) != len(want.Pix) {
			t.Fatalf("step %d: %dx%d (%d px), want %dx%d (%d px)", i, im.W, im.H, len(im.Pix), want.W, want.H, len(want.Pix))
		}
		for j := range want.Pix {
			if im.Pix[j] != want.Pix[j] {
				t.Fatalf("step %d: pixel %d = %v, want %v", i, j, im.Pix[j], want.Pix[j])
			}
		}
		if fits && first != backing(im.Pix) {
			t.Fatalf("step %d: a buffer that fits was replaced", i)
		}
	}
	w, h, n := im.W, im.H, len(im.Pix)
	if err := RasterizeInto(&im, Config{Window: geom.R(0, 0, 10, 10)}, nil); err == nil {
		t.Fatal("PixelNM 0 accepted")
	}
	if im.W != w || im.H != h || len(im.Pix) != n {
		t.Fatal("a refused config changed the image")
	}
}

// backing identifies a slice's backing array by its first element.
func backing(p []float64) *float64 {
	if cap(p) == 0 {
		return nil
	}
	return &p[:1][0]
}
