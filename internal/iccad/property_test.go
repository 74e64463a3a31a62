package iccad

import (
	"math/rand"
	"testing"

	"github.com/golitho/hsd/internal/geom"
)

// TestPatternsOnGrid: every generated shape must sit on the 8 nm grid —
// the raster and oracle assume grid-aligned geometry.
func TestPatternsOnGrid(t *testing.T) {
	cfg := DefaultSuiteConfig(1)
	st := DefaultStyle()
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 100; trial++ {
		clip, fam, err := synthesizeClip(rng, cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range clip.Shapes {
			// Clipping to the window preserves grid alignment because the
			// window itself is grid aligned.
			if s.Min.X%Grid != 0 || s.Min.Y%Grid != 0 || s.Max.X%Grid != 0 || s.Max.Y%Grid != 0 {
				t.Fatalf("family %s: off-grid shape %v", fam, s)
			}
		}
	}
}

// TestPatternsNoDrawnOverlapWithinFamily: generated patterns may touch
// (polygon decomposition) but gross overlaps indicate a generator bug.
// Jog joints deliberately overlap at corners, so only non-jog families
// are checked.
func TestPatternsNoDrawnOverlap(t *testing.T) {
	cfg := DefaultSuiteConfig(1)
	st := DefaultStyle()
	rng := rand.New(rand.NewSource(101))
	checked := 0
	for trial := 0; trial < 200 && checked < 60; trial++ {
		clip, fam, err := synthesizeClip(rng, cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		if fam == "jog" {
			continue
		}
		checked++
		for i := 0; i < len(clip.Shapes); i++ {
			for j := i + 1; j < len(clip.Shapes); j++ {
				if clip.Shapes[i].Overlaps(clip.Shapes[j]) {
					t.Fatalf("family %s: overlapping shapes %v and %v",
						fam, clip.Shapes[i], clip.Shapes[j])
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-jog clips checked")
	}
}

// TestSafeClipsUseSafeDimensions: non-risky line arrays must have widths
// and spaces in the safe band (the risk machinery must not leak).
func TestSafeClipsUseSafeDimensions(t *testing.T) {
	cfg := DefaultSuiteConfig(1)
	st := DefaultStyle()
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 50; trial++ {
		shapes := genLineArray(rng, cfg, st, false)
		for _, s := range shapes {
			// Track width is the short dimension of long shapes; short
			// broken-line segments are legitimately narrow along the
			// track axis and are skipped.
			if max(s.Dx(), s.Dy()) < 300 {
				continue
			}
			w := min(s.Dx(), s.Dy())
			if w < st.SafeWidth[0]-Grid {
				t.Fatalf("safe line array has width %d below safe band", w)
			}
		}
	}
}

// TestGenerateChipDeterministicShapes: chip generation must be seed-
// deterministic shape by shape.
func TestGenerateChipDeterministicShapes(t *testing.T) {
	a, err := GenerateChip(5, 4096, DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateChip(5, 4096, DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	as, bs := a.Shapes(), b.Shapes()
	if len(as) != len(bs) {
		t.Fatalf("shape counts differ: %d vs %d", len(as), len(bs))
	}
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("shape %d differs", i)
		}
	}
}

// TestChipTileInsets: tiles are inset, so no shape may cross a tile seam.
func TestChipTileInsets(t *testing.T) {
	chip, err := GenerateChip(6, 4096, DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range chip.Shapes() {
		tx0, tx1 := s.Min.X/1024, (s.Max.X-1)/1024
		ty0, ty1 := s.Min.Y/1024, (s.Max.Y-1)/1024
		if tx0 != tx1 || ty0 != ty1 {
			t.Fatalf("shape %v crosses a tile seam", s)
		}
	}
}

// TestStyleDegenerateRanges: degenerate (hi <= lo) ranges fall back to lo.
func TestStyleDegenerateRanges(t *testing.T) {
	st := DefaultStyle()
	st.SafeWidth = [2]int{80, 80}
	rng := rand.New(rand.NewSource(103))
	for i := 0; i < 10; i++ {
		if w := st.width(rng, false); w != 80 {
			t.Fatalf("degenerate width range produced %d", w)
		}
	}
	_ = geom.Rect{} // keep geom import for the grid test helpers
}
