package lithosim

import (
	"math"
	"testing"

	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/raster"
)

// makeClip builds a 1024 nm clip (core fraction 0.5) centred at (512, 512)
// over the given shapes.
func makeClip(t *testing.T, shapes ...geom.Rect) layout.Clip {
	t.Helper()
	l := layout.New("test")
	for _, r := range shapes {
		if err := l.AddRect(r); err != nil {
			t.Fatalf("AddRect(%v): %v", r, err)
		}
	}
	clip, err := l.ClipAt(geom.Pt(512, 512), 1024, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return clip
}

func newSim(t *testing.T) *Simulator {
	t.Helper()
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	base := DefaultConfig()

	c := base
	c.PixelNM = 0
	if _, err := New(c); err == nil {
		t.Error("zero PixelNM accepted")
	}
	c = base
	c.Threshold = 1.5
	if _, err := New(c); err == nil {
		t.Error("threshold > 1 accepted")
	}
	c = base
	c.NeckFrac = 0
	if _, err := New(c); err == nil {
		t.Error("zero NeckFrac accepted")
	}
	c = base
	c.Corners = []Corner{{Name: "bad", SigmaScale: 0, ThresholdScale: 1}}
	if _, err := New(c); err == nil {
		t.Error("zero SigmaScale accepted")
	}
	c = base
	c.K1 = 0
	c.SigmaNM = 0
	if _, err := New(c); err == nil {
		t.Error("zero sigma accepted")
	}
}

func TestSigmaDerivation(t *testing.T) {
	c := DefaultConfig()
	want := c.K1 * c.WavelengthNM / c.NA
	if math.Abs(c.Sigma()-want) > 1e-12 {
		t.Fatalf("Sigma = %v, want %v", c.Sigma(), want)
	}
	c.SigmaNM = 25
	if c.Sigma() != 25 {
		t.Fatalf("SigmaNM override ignored: %v", c.Sigma())
	}
}

func TestDefectTypeString(t *testing.T) {
	for d, want := range map[DefectType]string{
		DefectBridge: "bridge", DefectNeck: "neck",
		DefectOpen: "open", DefectEPE: "epe", DefectType(99): "defect(99)",
	} {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(d), got, want)
		}
	}
}

// directConvolveSame is 2-D convolution from its definition: a w x h
// image with a centred kw x kh kernel, zero outside the image, one sum
// per output pixel.
func directConvolveSame(img []float64, w, h int, k []float64, kw, kh int) []float64 {
	out := make([]float64, w*h)
	ox, oy := kw/2, kh/2
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var s float64
			for j := 0; j < kh; j++ {
				for i := 0; i < kw; i++ {
					// out[y][x] = sum img[y - (j-oy)][x - (i-ox)] * k[j][i]
					yy := y - (j - oy)
					xx := x - (i - ox)
					if yy < 0 || xx < 0 || yy >= h || xx >= w {
						continue
					}
					s += img[yy*w+xx] * k[j*kw+i]
				}
			}
			out[y*w+x] = s
		}
	}
	return out
}

// TestBlurMatchesDirectConvolution cross-validates the separable spatial
// blur against the 2-D convolution with the outer-product kernel, summed
// directly. Both pad with zeros, so they agree everywhere, up to the
// order of the sums.
func TestBlurMatchesDirectConvolution(t *testing.T) {
	s := newSim(t)
	im := raster.NewImage(64, 64)
	for y := 20; y < 44; y++ {
		for x := 10; x < 30; x++ {
			im.Set(x, y, 1)
		}
	}
	got := s.AerialImage(im)

	k1 := s.kernels[0].taps
	n := len(k1)
	k2 := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			k2[i*n+j] = k1[i] * k1[j]
		}
	}
	want := directConvolveSame(im.Pix, im.W, im.H, k2, n, n)
	for i := range want {
		if math.Abs(got.Pix[i]-want[i]) > 1e-9 {
			t.Fatalf("blur differs from direct convolution at %d: %v vs %v", i, got.Pix[i], want[i])
		}
	}
}

func TestGaussKernelNormalized(t *testing.T) {
	for _, sigma := range []float64{0.5, 1, 3.75, 10} {
		k := gauss1D(sigma)
		var sum float64
		for _, v := range k {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("sigma %v: kernel sum = %v", sigma, sum)
		}
		if len(k)%2 != 1 {
			t.Errorf("sigma %v: kernel length %d is even", sigma, len(k))
		}
		for i := 0; i < len(k)/2; i++ {
			if math.Abs(k[i]-k[len(k)-1-i]) > 1e-12 {
				t.Errorf("sigma %v: kernel asymmetric", sigma)
			}
		}
	}
}

func TestAerialImageWideFeature(t *testing.T) {
	s := newSim(t)
	// A very wide feature: centre intensity ~1, far field ~0, edge ~0.5.
	im := raster.NewImage(128, 128)
	for y := 32; y < 96; y++ {
		for x := 0; x < 128; x++ {
			im.Set(x, y, 1)
		}
	}
	aer := s.AerialImage(im)
	if got := aer.At(64, 64); got < 0.99 {
		t.Errorf("interior intensity = %v, want ~1", got)
	}
	if got := aer.At(64, 5); got > 0.01 {
		t.Errorf("far-field intensity = %v, want ~0", got)
	}
	// The drawn edge is at y=32 boundary; pixel row 32 centre is half a
	// pixel inside, so intensity is slightly above 0.5.
	edge := aer.At(64, 32)
	if edge < 0.5 || edge > 0.6 {
		t.Errorf("edge intensity = %v, want in [0.5, 0.6]", edge)
	}
}

func TestSimulateEmptyClip(t *testing.T) {
	s := newSim(t)
	if _, err := s.Simulate(layout.Clip{}); err == nil {
		t.Fatal("empty window accepted")
	}
	res, err := s.Simulate(layout.Clip{Window: geom.R(0, 0, 1024, 1024), Core: geom.R(256, 256, 768, 768)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hotspot {
		t.Fatal("clip with no shapes labelled hotspot")
	}
}

func TestSimulateSafeWideLine(t *testing.T) {
	s := newSim(t)
	clip := makeClip(t, geom.R(0, 462, 1024, 562)) // 100 nm line through core
	res, err := s.Simulate(clip)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hotspot {
		t.Fatalf("wide line flagged hotspot: %v", res.Defects)
	}
}

func TestSimulateNarrowLineOpens(t *testing.T) {
	s := newSim(t)
	clip := makeClip(t, geom.R(0, 492, 1024, 532)) // 40 nm line: below resolution
	res, err := s.Simulate(clip)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hotspot {
		t.Fatal("sub-resolution line not flagged")
	}
	if !hasDefect(res, DefectOpen) && !hasDefect(res, DefectNeck) {
		t.Fatalf("want open/neck defect, got %v", res.Defects)
	}
}

func TestSimulateTightSpaceBridges(t *testing.T) {
	s := newSim(t)
	clip := makeClip(t,
		geom.R(0, 400, 1024, 500),
		geom.R(0, 536, 1024, 636), // 36 nm space
	)
	res, err := s.Simulate(clip)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hotspot {
		t.Fatal("36 nm space not flagged")
	}
	if !hasDefect(res, DefectBridge) {
		t.Fatalf("want bridge defect, got %v", res.Defects)
	}
}

func TestSimulateSafeSpace(t *testing.T) {
	s := newSim(t)
	clip := makeClip(t,
		geom.R(0, 380, 1024, 480),
		geom.R(0, 600, 1024, 700), // 120 nm space
	)
	res, err := s.Simulate(clip)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hotspot {
		t.Fatalf("120 nm space flagged hotspot: %v", res.Defects)
	}
}

func TestSimulateDefectOutsideCoreIgnored(t *testing.T) {
	s := newSim(t)
	// A sub-resolution line near the window edge, entirely outside the
	// 512 nm core (y in [256, 768)).
	clip := makeClip(t, geom.R(0, 880, 1024, 920))
	res, err := s.Simulate(clip)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hotspot {
		t.Fatalf("defect outside core scored: %v", res.Defects)
	}
}

func TestSimulateLineEndPullback(t *testing.T) {
	s := newSim(t)
	// A 60 nm line ending in the middle of the core: line-end pullback at
	// defocus exceeds the EPE tolerance.
	clip := makeClip(t, geom.R(0, 482, 512, 542))
	res, err := s.Simulate(clip)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hotspot {
		t.Fatal("narrow line end in core not flagged")
	}
}

func TestSimulateWideLineEndSafe(t *testing.T) {
	s := newSim(t)
	// A 120 nm line ending in the core: pullback is within tolerance.
	clip := makeClip(t, geom.R(0, 452, 512, 572))
	res, err := s.Simulate(clip)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hotspot {
		t.Fatalf("wide line end flagged hotspot: %v", res.Defects)
	}
}

func TestSimulateLShapeSafe(t *testing.T) {
	s := newSim(t)
	// A fat L through the core, built from two abutting rects. The shared
	// internal edge must not trigger EPE or bridge checks.
	clip := makeClip(t,
		geom.R(300, 400, 700, 520),
		geom.R(580, 520, 700, 900),
	)
	res, err := s.Simulate(clip)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hotspot {
		t.Fatalf("safe L-shape flagged: %v", res.Defects)
	}
}

func TestPVBandMonotonicity(t *testing.T) {
	s := newSim(t)
	wide := makeClip(t, geom.R(0, 412, 1024, 612))   // 200 nm line
	narrow := makeClip(t, geom.R(0, 484, 1024, 540)) // 56 nm line
	rw, err := s.Simulate(wide)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := s.Simulate(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if rw.PVBandArea < 0 || rn.PVBandArea < 0 {
		t.Fatal("negative PV band")
	}
	if rn.PVBandArea <= rw.PVBandArea {
		t.Fatalf("narrow-line PV band (%v) should exceed wide-line PV band (%v)",
			rn.PVBandArea, rw.PVBandArea)
	}
}

func TestRunWidth(t *testing.T) {
	m := raster.NewMask(10, 10)
	for x := 2; x < 8; x++ {
		m.Set(x, 5, 1)
	}
	if w := runWidth(m, 5, 5, false); w != 6 {
		t.Fatalf("horizontal run = %d, want 6", w)
	}
	if w := runWidth(m, 5, 5, true); w != 1 {
		t.Fatalf("vertical run = %d, want 1", w)
	}
	if w := runWidth(m, 0, 0, false); w != 0 {
		t.Fatalf("empty run = %d, want 0", w)
	}
}

func TestAerialCornerIndex(t *testing.T) {
	s := newSim(t)
	im := raster.NewImage(32, 32)
	if _, err := s.AerialImageAt(im, -1); err == nil {
		t.Fatal("negative corner accepted")
	}
	if _, err := s.AerialImageAt(im, len(s.cfg.Corners)); err == nil {
		t.Fatal("out-of-range corner accepted")
	}
	if _, err := s.AerialImageAt(im, len(s.cfg.Corners)-1); err != nil {
		t.Fatal(err)
	}
}

func hasDefect(r Result, d DefectType) bool {
	for _, def := range r.Defects {
		if def.Type == d {
			return true
		}
	}
	return false
}
