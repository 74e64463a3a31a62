package pm

import (
	"testing"

	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
)

func clipOf(t *testing.T, shapes ...geom.Rect) layout.Clip {
	t.Helper()
	l := layout.New("t")
	for _, s := range shapes {
		if err := l.AddRect(s); err != nil {
			t.Fatal(err)
		}
	}
	clip, err := l.ClipAt(geom.Pt(512, 512), 1024, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return clip
}

// matches is the detector's verdict: the clip lies within the library's
// Hamming tolerance of a stored pattern.
func matches(t *testing.T, l *Library, clip layout.Clip) bool {
	t.Helper()
	d, err := l.MinDistance(clip)
	if err != nil {
		t.Fatal(err)
	}
	return d <= l.cfg.Tol
}

func TestExactMatch(t *testing.T) {
	lib, err := New(Config{GridPx: 32})
	if err != nil {
		t.Fatal(err)
	}
	hs := clipOf(t, geom.R(0, 448, 1024, 512), geom.R(0, 544, 1024, 608))
	if err := lib.AddHotspot(hs); err != nil {
		t.Fatal(err)
	}
	if !matches(t, lib, hs) {
		t.Fatal("library does not match its own pattern")
	}
	s, err := lib.Score(hs)
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Fatalf("self score = %v, want 1", s)
	}
}

func TestNoMatchOnDifferentPattern(t *testing.T) {
	lib, err := New(Config{GridPx: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.AddHotspot(clipOf(t, geom.R(0, 448, 1024, 512))); err != nil {
		t.Fatal(err)
	}
	other := clipOf(t, geom.R(448, 0, 512, 1024)) // orthogonal line
	if matches(t, lib, other) {
		t.Fatal("exact matcher matched a different pattern")
	}
}

func TestFuzzyTolerance(t *testing.T) {
	exact, err := New(Config{GridPx: 32, Tol: 0})
	if err != nil {
		t.Fatal(err)
	}
	fuzzy, err := New(Config{GridPx: 32, Tol: 70})
	if err != nil {
		t.Fatal(err)
	}
	base := clipOf(t, geom.R(0, 448, 1024, 512))
	if err := exact.AddHotspot(base); err != nil {
		t.Fatal(err)
	}
	if err := fuzzy.AddHotspot(base); err != nil {
		t.Fatal(err)
	}
	// Shift the line by one 32 nm grid pixel: 32 differing pixel rows.
	shifted := clipOf(t, geom.R(0, 480, 1024, 544))
	if matches(t, exact, shifted) {
		t.Fatal("exact matcher matched a shifted pattern")
	}
	if !matches(t, fuzzy, shifted) {
		d, _ := fuzzy.MinDistance(shifted)
		t.Fatalf("fuzzy matcher rejected shifted pattern (distance %d)", d)
	}
}

func TestMirrorAugmentation(t *testing.T) {
	asym := clipOf(t, geom.R(0, 448, 400, 512)) // line only on the left
	mirrored := clipOf(t, geom.R(624, 448, 1024, 512))

	plain, err := New(Config{GridPx: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.AddHotspot(asym); err != nil {
		t.Fatal(err)
	}
	if matches(t, plain, mirrored) {
		t.Fatal("plain matcher matched mirror image")
	}

	withMirror, err := New(Config{GridPx: 32, Mirror: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := withMirror.AddHotspot(asym); err != nil {
		t.Fatal(err)
	}
	if withMirror.Size() != 3 {
		t.Fatalf("mirror library size = %d, want 3", withMirror.Size())
	}
	if !matches(t, withMirror, mirrored) {
		t.Fatal("mirror matcher missed mirror image")
	}
}

func TestEmptyLibrary(t *testing.T) {
	lib, err := New(Config{GridPx: 16})
	if err != nil {
		t.Fatal(err)
	}
	c := clipOf(t, geom.R(0, 0, 1024, 1024))
	d, err := lib.MinDistance(c)
	if err != nil {
		t.Fatal(err)
	}
	if d != 16*16 {
		t.Fatalf("empty library distance = %d, want %d", d, 16*16)
	}
	s, err := lib.Score(c)
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Fatalf("empty library score = %v, want 0", s)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{Tol: -1}); err == nil {
		t.Fatal("negative tolerance accepted")
	}
	lib, err := New(Config{GridPx: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.AddHotspot(layout.Clip{}); err == nil {
		t.Fatal("empty clip accepted")
	}
	// Non-square window.
	bad := layout.Clip{Window: geom.R(0, 0, 100, 200)}
	if err := lib.AddHotspot(bad); err == nil {
		t.Fatal("non-square clip accepted")
	}
	// Window not divisible by grid.
	bad2 := layout.Clip{Window: geom.R(0, 0, 100, 100)}
	if err := lib.AddHotspot(bad2); err == nil {
		t.Fatal("indivisible window accepted")
	}
}

func TestBitsetHamming(t *testing.T) {
	a, b := newBitset(128), newBitset(128)
	a.set(0)
	a.set(100)
	b.set(100)
	b.set(127)
	if d := a.hamming(b); d != 2 {
		t.Fatalf("hamming = %d, want 2", d)
	}
	if d := a.hamming(a); d != 0 {
		t.Fatalf("self hamming = %d", d)
	}
}
