package lithosim

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/raster"
)

func randomTestClip(t *testing.T, rng *rand.Rand) layout.Clip {
	t.Helper()
	l := layout.New("prop")
	n := 2 + rng.Intn(8)
	for i := 0; i < n; i++ {
		x, y := rng.Intn(900), rng.Intn(900)
		w, h := 48+8*rng.Intn(16), 48+8*rng.Intn(16)
		if err := l.AddRect(geom.R(x, y, x+w, y+h)); err != nil {
			t.Fatal(err)
		}
	}
	clip, err := l.ClipAt(geom.Pt(512, 512), 1024, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return clip
}

// TestDoseMonotonicity: lowering the resist threshold can only grow the
// printed region (pixel-wise superset).
func TestDoseMonotonicity(t *testing.T) {
	s := newSim(t)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		clip := randomTestClip(t, rng)
		im, err := raster.Rasterize(raster.Config{Window: clip.Window, PixelNM: 8}, clip.Shapes)
		if err != nil {
			t.Fatal(err)
		}
		aer := s.AerialImage(im)
		lo := aer.Threshold(0.45)
		hi := aer.Threshold(0.55)
		for i := range hi.Pix {
			if hi.Pix[i] == 1 && lo.Pix[i] == 0 {
				t.Fatal("higher threshold printed a pixel the lower one did not")
			}
		}
	}
}

// TestAerialBounds: aerial intensities stay within [0, 1] (the mask is a
// coverage image and the kernel is normalized).
func TestAerialBounds(t *testing.T) {
	s := newSim(t)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		clip := randomTestClip(t, rng)
		im, err := raster.Rasterize(raster.Config{Window: clip.Window, PixelNM: 8}, clip.Shapes)
		if err != nil {
			t.Fatal(err)
		}
		aer := s.AerialImage(im)
		for _, v := range aer.Pix {
			if v < -1e-12 || v > 1+1e-12 {
				t.Fatalf("aerial intensity %v out of [0,1]", v)
			}
		}
	}
}

// TestSimulateDeterministic: identical clips yield identical verdicts.
func TestSimulateDeterministic(t *testing.T) {
	s := newSim(t)
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 8; trial++ {
		clip := randomTestClip(t, rng)
		a, err := s.Simulate(clip)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Simulate(clip)
		if err != nil {
			t.Fatal(err)
		}
		if a.Hotspot != b.Hotspot || len(a.Defects) != len(b.Defects) || a.PVBandArea != b.PVBandArea {
			t.Fatal("oracle verdict not deterministic")
		}
	}
}

// TestSimulateConcurrentUse: one simulator must be usable from many
// goroutines (the benchmark generator labels in parallel).
func TestSimulateConcurrentUse(t *testing.T) {
	s := newSim(t)
	rng := rand.New(rand.NewSource(44))
	clips := make([]layout.Clip, 16)
	want := make([]bool, len(clips))
	for i := range clips {
		clips[i] = randomTestClip(t, rng)
		res, err := s.Simulate(clips[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Hotspot
	}
	var wg sync.WaitGroup
	errs := make([]error, len(clips))
	for i := range clips {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				res, err := s.Simulate(clips[i])
				if err != nil {
					errs[i] = err
					return
				}
				if res.Hotspot != want[i] {
					errs[i] = errMismatch
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("clip %d: %v", i, err)
		}
	}
}

var errMismatch = errorString("concurrent verdict mismatch")

type errorString string

func (e errorString) Error() string { return string(e) }

// TestMirrorSymmetryOfOracle: the oracle's verdict is a function of a
// clip's canonical geometry. Optics is mirror-symmetric (the physical
// justification for mirror augmentation), and the clip fingerprint that
// keys the scan cache and the spot-check sample discards the window's
// absolute position and the order shapes were drawn in. Under each of
// those transforms the verdict and the PV-band area must stay bit for
// bit what they were, and under the two the fingerprint removes so must
// the defect count. The defect checks sample edges and cross-sections
// at fixed pixel steps from one end, so a mirror may move a sample on
// or off a defect without changing the verdict.
func TestMirrorSymmetryOfOracle(t *testing.T) {
	s := newSim(t)
	rng := rand.New(rand.NewSource(46))
	transforms := []struct {
		name        string
		sameDefects bool
		apply       func(layout.Clip) layout.Clip
	}{
		{"mirror", false, func(c layout.Clip) layout.Clip {
			m := layout.Clip{Window: c.Window, Core: mirrorRect(c.Core, c.Window)}
			for _, r := range c.Shapes {
				m.Shapes = append(m.Shapes, mirrorRect(r, c.Window))
			}
			return m
		}},
		{"translate", true, func(c layout.Clip) layout.Clip {
			// Any offset, most of them off the simulation pixel grid.
			d := geom.Pt(rng.Intn(20001)-10000, rng.Intn(20001)-10000)
			m := layout.Clip{Window: c.Window.Translate(d), Core: c.Core.Translate(d)}
			for _, r := range c.Shapes {
				m.Shapes = append(m.Shapes, r.Translate(d))
			}
			return m
		}},
		{"permute", true, func(c layout.Clip) layout.Clip {
			m := layout.Clip{Window: c.Window, Core: c.Core, Shapes: make([]geom.Rect, len(c.Shapes))}
			for i, j := range rng.Perm(len(c.Shapes)) {
				m.Shapes[i] = c.Shapes[j]
			}
			return m
		}},
	}
	for trial := 0; trial < 40; trial++ {
		clip := randomTestClip(t, rng)
		a, err := s.Simulate(clip)
		if err != nil {
			t.Fatal(err)
		}
		for _, tf := range transforms {
			b, err := s.Simulate(tf.apply(clip))
			if err != nil {
				t.Fatal(err)
			}
			if a.Hotspot != b.Hotspot || tf.sameDefects && len(a.Defects) != len(b.Defects) ||
				math.Float64bits(a.PVBandArea) != math.Float64bits(b.PVBandArea) {
				t.Fatalf("trial %d, %s: (hotspot %v, %d defects, PV band %v) -> (%v, %d, %v)",
					trial, tf.name, a.Hotspot, len(a.Defects), a.PVBandArea,
					b.Hotspot, len(b.Defects), b.PVBandArea)
			}
		}
	}
}

func mirrorRect(r, window geom.Rect) geom.Rect {
	ax2 := window.Min.X + window.Max.X
	return geom.R(ax2-r.Min.X, r.Min.Y, ax2-r.Max.X, r.Max.Y)
}
