package lithosim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/golitho/hsd/internal/raster"
	"github.com/golitho/hsd/internal/tensor"
)

// blurSeparableScalar is the seed's blur, kept as the reference the
// matmul-kernel blur is held to: it convolves im with the separable
// kernel k, truncating the sums at the image edge (zero padding).
func blurSeparableScalar(im *raster.Image, k []float64) *raster.Image {
	r := (len(k) - 1) / 2
	tmp := raster.NewImage(im.W, im.H)
	// Horizontal pass.
	for y := 0; y < im.H; y++ {
		row := y * im.W
		for x := 0; x < im.W; x++ {
			var s float64
			lo, hi := -r, r
			if x+lo < 0 {
				lo = -x
			}
			if x+hi >= im.W {
				hi = im.W - 1 - x
			}
			for d := lo; d <= hi; d++ {
				s += im.Pix[row+x+d] * k[d+r]
			}
			tmp.Pix[row+x] = s
		}
	}
	out := raster.NewImage(im.W, im.H)
	// Vertical pass.
	for y := 0; y < im.H; y++ {
		lo, hi := -r, r
		if y+lo < 0 {
			lo = -y
		}
		if y+hi >= im.H {
			hi = im.H - 1 - y
		}
		for x := 0; x < im.W; x++ {
			var s float64
			for d := lo; d <= hi; d++ {
				s += tmp.Pix[(y+d)*im.W+x] * k[d+r]
			}
			out.Pix[y*im.W+x] = s
		}
	}
	return out
}

// simWithRadii builds a simulator whose corners blur with kernels of
// exactly the given radii (gauss1D's radius is ceil(3*sigmaPx)).
func simWithRadii(t testing.TB, radii ...int) *Simulator {
	t.Helper()
	cfg := DefaultConfig()
	cfg.PixelNM, cfg.SigmaNM = 3, 1
	cfg.Corners = nil
	for _, r := range radii {
		cfg.Corners = append(cfg.Corners, Corner{Name: fmt.Sprint("r", r), SigmaScale: float64(r) - 0.5, ThresholdScale: 1})
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range radii {
		if got := s.kernels[s.blurOf[i]].radius(); got != r {
			t.Fatalf("corner %d has radius %d, want %d", i, got, r)
		}
	}
	return s
}

// TestBlurMatchesScalarBits: the blur on the matmul kernel gives the
// scalar loop's aerial image to the bit, for every kernel radius the
// band can meet (shorter, equal and longer than the image, the shared
// border deeper than the kernel's own) and for image shapes that leave
// the 4-row band and the 8-column panel ragged.
func TestBlurMatchesScalarBits(t *testing.T) {
	radii := make([]int, 15)
	for i := range radii {
		radii[i] = i + 1
	}
	s := simWithRadii(t, radii...)
	rng := rand.New(rand.NewSource(61))
	for _, size := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {3, 40}, {40, 3}, {5, 7}, {8, 8}, {17, 33}, {64, 64}, {130, 127}} {
		im := raster.NewImage(size[0], size[1])
		for i := range im.Pix {
			// Coverage fractions, with the exact 0s and 1s a mask is mostly
			// made of, and the odd negative value: the argument for the
			// zero terms holds for any finite pixel.
			switch rng.Intn(8) {
			case 0, 1:
				im.Pix[i] = 1
			case 2, 3:
				im.Pix[i] = rng.Float64()
			case 4:
				im.Pix[i] = -rng.Float64()
			}
		}
		for ci := range radii {
			got, err := s.AerialImageAt(im, ci)
			if err != nil {
				t.Fatal(err)
			}
			want := blurSeparableScalar(im, s.kernels[s.blurOf[ci]].taps)
			if got.W != want.W || got.H != want.H {
				t.Fatalf("%dx%d radius %d: got a %dx%d image", size[0], size[1], radii[ci], got.W, got.H)
			}
			for p := range want.Pix {
				if math.Float64bits(got.Pix[p]) != math.Float64bits(want.Pix[p]) {
					t.Fatalf("%dx%d radius %d: pixel %d is %x, the scalar blur gives %x",
						size[0], size[1], radii[ci], p, math.Float64bits(got.Pix[p]), math.Float64bits(want.Pix[p]))
				}
			}
		}
	}
}

// TestAerialImagesAreCallerOwned: AerialImage, AerialImageAt and Print
// return fresh images, never the pooled scratch the blur computes in, so
// a second call cannot change what the first returned.
func TestAerialImagesAreCallerOwned(t *testing.T) {
	s := newSim(t)
	rng := rand.New(rand.NewSource(62))
	rasterize := func() *raster.Image {
		clip := randomTestClip(t, rng)
		im, err := raster.Rasterize(raster.Config{Window: clip.Window, PixelNM: 8}, clip.Shapes)
		if err != nil {
			t.Fatal(err)
		}
		return im
	}
	a, b := rasterize(), rasterize()

	first := s.AerialImage(a)
	keep := first.Clone()
	second := s.AerialImage(b)
	if &first.Pix[0] == &second.Pix[0] {
		t.Fatal("two AerialImage calls returned the same pixels")
	}
	if raster.MSE(first, keep) != 0 {
		t.Fatal("a second AerialImage call changed the first call's image")
	}

	at1, err := s.AerialImageAt(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	keep = at1.Clone()
	if _, err := s.AerialImageAt(b, 1); err != nil {
		t.Fatal(err)
	}
	if raster.MSE(at1, keep) != 0 {
		t.Fatal("a second AerialImageAt call changed the first call's image")
	}

	p1, err := s.Print(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	keepMask := append([]uint8(nil), p1.Pix...)
	p2, err := s.Print(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &p1.Pix[0] == &p2.Pix[0] || string(keepMask) != string(p1.Pix) {
		t.Fatal("a second Print call aliases or changed the first call's mask")
	}
}

// BenchmarkBlurPassShapes times the ways one blur pass over a 128 x 128
// image can be laid on the matmul kernel, at the default config's two
// kernels (25 and 31 taps) together. It is the measurement DESIGN §4's
// choice rests on: the 4-row band down columns (what Simulator.pass
// runs) against one output row per product, and, for the horizontal
// pass, one flat one-row product per kernel or both kernels stacked as
// two rows, against a band pass plus the transpose that feeds it.
func BenchmarkBlurPassShapes(b *testing.B) {
	s, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	const w, h = 128, 128
	sc := new(scratch)
	sc.fit(s, w, h)
	rng := rand.New(rand.NewSource(1))
	mask := raster.NewImage(w, h)
	for i := range mask.Pix {
		mask.Pix[i] = rng.Float64()
	}
	sc.cols.fill(s.reach, mask.Pix, h, w)
	out := make([]float64, w*h)

	b.Run("down/band4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range s.kernels {
				s.pass(out, &sc.cols, j, w, h)
			}
		}
	})
	b.Run("down/row1", func(b *testing.B) {
		var tables []tensor.RowTable
		for j := range s.kernels {
			off := make([]int, len(s.kernels[j].taps))
			for t := range off {
				off[t] = (s.reach - s.kernels[j].radius() + t) * sc.cols.stride
			}
			tables = append(tables, tensor.NewRowTable(off))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range s.kernels {
				for y := 0; y < w; y++ {
					tensor.MatMulAddressedInto(out[y*h:], h, s.kernels[j].taps, 1, sc.cols.pix[y*sc.cols.stride:], tables[j], h)
				}
			}
		}
	})

	// The horizontal pass where the rows lie: one flat product over a
	// copy of the image with a reach-wide zero border on each row, every
	// tap a view of it shifted by one element. The outputs between rows
	// are computed and thrown away.
	stride := w + 2*s.reach
	flat := make([]float64, h*stride+2*s.reach)
	for y := 0; y < h; y++ {
		copy(flat[y*stride+s.reach:], mask.Pix[y*w:(y+1)*w])
	}
	flatOut := make([]float64, 2*h*stride)
	longest := 2*s.reach + 1
	stacked := make([]float64, len(s.kernels)*longest)
	var shifts []tensor.RowTable
	for j := range s.kernels {
		k := &s.kernels[j]
		copy(stacked[j*longest+s.reach-k.radius():], k.taps)
		off := make([]int, len(k.taps))
		for t := range off {
			off[t] = s.reach - k.radius() + t
		}
		shifts = append(shifts, tensor.NewRowTable(off))
	}
	all := make([]int, longest)
	for t := range all {
		all[t] = t
	}
	allShifts := tensor.NewRowTable(all)
	b.Run("along/row1-per-kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range s.kernels {
				tensor.MatMulAddressedInto(flatOut, h*stride, s.kernels[j].taps, 1, flat, shifts[j], h*stride)
			}
		}
	})
	b.Run("along/kernels-stacked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatMulAddressedInto(flatOut, h*stride, stacked, len(s.kernels), flat, allShifts, h*stride)
		}
	})
	b.Run("along/transpose+band4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range s.kernels {
				s.pass(sc.mid, &sc.cols, j, w, h)
				sc.rows.fill(s.reach, sc.mid, w, h)
			}
		}
	})
}
