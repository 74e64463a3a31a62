package layout

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/golitho/hsd/internal/geom"
)

func TestAddRectRejectsEmpty(t *testing.T) {
	l := New("t")
	if err := l.AddRect(geom.Rect{}); err == nil {
		t.Fatal("empty rect accepted")
	}
	if l.NumShapes() != 0 {
		t.Fatal("empty rect stored")
	}
}

func TestBoundsGrow(t *testing.T) {
	l := New("t")
	mustAdd(t, l, geom.R(0, 0, 10, 10))
	mustAdd(t, l, geom.R(100, -50, 120, 7))
	if l.Bounds() != geom.R(0, -50, 120, 10) {
		t.Fatalf("Bounds = %v", l.Bounds())
	}
}

func TestQueryBasic(t *testing.T) {
	l := NewWithGrid("t", 64)
	a := geom.R(0, 0, 10, 10)
	b := geom.R(100, 100, 110, 110)
	mustAdd(t, l, a)
	mustAdd(t, l, b)
	got := l.Query(geom.R(-5, -5, 50, 50))
	if len(got) != 1 || got[0] != a {
		t.Fatalf("Query = %v, want [%v]", got, a)
	}
	if got := l.Query(geom.R(10, 0, 20, 10)); len(got) != 0 {
		t.Fatalf("touching shape returned: %v", got)
	}
	if got := l.Query(geom.Rect{}); got != nil {
		t.Fatalf("empty window returned %v", got)
	}
}

func TestQuerySpansGridCells(t *testing.T) {
	l := NewWithGrid("t", 32)
	big := geom.R(-100, -100, 200, 200) // spans many cells
	mustAdd(t, l, big)
	for _, w := range []geom.Rect{
		geom.R(-90, -90, -80, -80),
		geom.R(0, 0, 1, 1),
		geom.R(190, 190, 195, 195),
	} {
		got := l.Query(w)
		if len(got) != 1 || got[0] != big {
			t.Fatalf("Query(%v) = %v", w, got)
		}
	}
}

func TestQueryNoDuplicates(t *testing.T) {
	l := NewWithGrid("t", 16)
	mustAdd(t, l, geom.R(0, 0, 100, 100)) // overlaps many cells
	got := l.Query(geom.R(0, 0, 100, 100))
	if len(got) != 1 {
		t.Fatalf("duplicate results: %v", got)
	}
}

func TestQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := NewWithGrid("t", 50)
	var all []geom.Rect
	for i := 0; i < 300; i++ {
		r := geom.R(rng.Intn(1000), rng.Intn(1000), rng.Intn(1000), rng.Intn(1000))
		if r.Empty() {
			continue
		}
		mustAdd(t, l, r)
		all = append(all, r)
	}
	f := func() bool {
		w := geom.R(rng.Intn(1100)-50, rng.Intn(1100)-50, rng.Intn(1100)-50, rng.Intn(1100)-50)
		got := l.Query(w)
		var want int
		for _, r := range all {
			if r.Overlaps(w) {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAddPolygon(t *testing.T) {
	l := New("t")
	lshape := geom.Polygon{
		geom.Pt(0, 0), geom.Pt(20, 0), geom.Pt(20, 10),
		geom.Pt(10, 10), geom.Pt(10, 20), geom.Pt(0, 20),
	}
	if err := l.AddPolygon(lshape); err != nil {
		t.Fatal(err)
	}
	var area int64
	for _, s := range l.Shapes() {
		area += s.Area()
	}
	if area != 300 {
		t.Fatalf("polygon area after decomposition = %d, want 300", area)
	}
	bad := geom.Polygon{geom.Pt(0, 0), geom.Pt(5, 7), geom.Pt(0, 7), geom.Pt(0, 3)}
	if err := l.AddPolygon(bad); err == nil {
		t.Fatal("invalid polygon accepted")
	}
}

func TestClipAt(t *testing.T) {
	l := New("t")
	mustAdd(t, l, geom.R(0, 0, 1000, 50))
	clip, err := l.ClipAt(geom.Pt(500, 25), 200, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if clip.Window != geom.R(400, -75, 600, 125) {
		t.Fatalf("Window = %v", clip.Window)
	}
	if clip.Core != geom.R(450, -25, 550, 75) {
		t.Fatalf("Core = %v", clip.Core)
	}
	if len(clip.Shapes) != 1 || clip.Shapes[0] != geom.R(400, 0, 600, 50) {
		t.Fatalf("Shapes = %v", clip.Shapes)
	}
	// Density: 200x50 covered of 200x200.
	if d := clip.Density(); d != 0.25 {
		t.Fatalf("Density = %v, want 0.25", d)
	}
}

func TestClipAtValidation(t *testing.T) {
	l := New("t")
	if _, err := l.ClipAt(geom.Pt(0, 0), 0, 0.5); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := l.ClipAt(geom.Pt(0, 0), 100, 0); err == nil {
		t.Fatal("zero coreFrac accepted")
	}
	if _, err := l.ClipAt(geom.Pt(0, 0), 100, 1.5); err == nil {
		t.Fatal("coreFrac > 1 accepted")
	}
}

// TestClipShapeBound: a window of MaxClipShapes shapes is clipped and
// keyed; one more shape and ClipAt, CutClip and FingerprintAt each
// refuse it with one error that wraps ErrTooManyShapes and names the
// window's centre and its count.
func TestClipShapeBound(t *testing.T) {
	l := New("t")
	for k := 0; k < MaxClipShapes; k++ {
		x, y := k%32*12, k/32*12
		mustAdd(t, l, geom.R(x, y, x+4, y+4))
	}
	c := geom.Pt(200, 200)
	if clip, err := l.ClipAt(c, 1024, 0.5); err != nil || len(clip.Shapes) != MaxClipShapes {
		t.Fatalf("ClipAt at the bound: %d shapes, %v", len(clip.Shapes), err)
	}
	if _, n, err := l.FingerprintAt(c, 1024, 0.5); err != nil || n != MaxClipShapes {
		t.Fatalf("FingerprintAt at the bound: %d shapes, %v", n, err)
	}
	mustAdd(t, l, geom.R(500, 500, 504, 504))
	_, errClip := l.ClipAt(c, 1024, 0.5)
	_, errCut := CutClip(l.Shapes(), c, 1024, 0.5)
	_, _, errKey := l.FingerprintAt(c, 1024, 0.5)
	for _, err := range []error{errClip, errCut, errKey} {
		if !errors.Is(err, ErrTooManyShapes) || err.Error() != errClip.Error() ||
			!strings.Contains(err.Error(), "(200,200)") || !strings.HasSuffix(err.Error(), ": 1025") {
			t.Fatalf("over the bound: ClipAt %v, CutClip %v, FingerprintAt %v", errClip, errCut, errKey)
		}
	}
}

func TestClipTranslate(t *testing.T) {
	l := New("t")
	mustAdd(t, l, geom.R(90, 90, 110, 110))
	clip, err := l.ClipAt(geom.Pt(100, 100), 100, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	tr := clip.Translate()
	if tr.Window.Min != geom.Pt(0, 0) {
		t.Fatalf("translated window min = %v", tr.Window.Min)
	}
	if tr.Density() != clip.Density() {
		t.Fatal("translate changed density")
	}
}

func TestIORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := New("roundtrip test")
	for i := 0; i < 100; i++ {
		r := geom.R(rng.Intn(5000), rng.Intn(5000), rng.Intn(5000), rng.Intn(5000))
		if r.Empty() {
			continue
		}
		mustAdd(t, l, r)
	}
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != l.Name {
		t.Fatalf("name = %q, want %q", got.Name, l.Name)
	}
	a, b := l.Shapes(), got.Shapes()
	if len(a) != len(b) {
		t.Fatalf("shape count = %d, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shape %d = %v, want %v", i, b[i], a[i])
		}
	}
	if got.Bounds() != l.Bounds() {
		t.Fatalf("bounds = %v, want %v", got.Bounds(), l.Bounds())
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"GLT 2\nLAYOUT x\nEND\n",
		"GLT 1\nRECT 0 0 1 1\nEND\n",             // missing LAYOUT
		"GLT 1\nLAYOUT x\nRECT 0 0 1\nEND\n",     // short rect
		"GLT 1\nLAYOUT x\nRECT a b c d\nEND\n",   // non-numeric
		"GLT 1\nLAYOUT x\nRECT 0 0 0 10\nEND\n",  // empty rect
		"GLT 1\nLAYOUT x\nRECT 0 0 1 1\n",        // missing END
		"GLT 1\nLAYOUT x\nTRIANGLE 0 0 1 1\nEND", // unknown record
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	src := "# header comment\n\nGLT 1\nLAYOUT demo\n# a rect\nRECT 0 0 5 5\n\nEND\n"
	l, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if l.NumShapes() != 1 {
		t.Fatalf("shapes = %d, want 1", l.NumShapes())
	}
}

func mustAdd(t *testing.T, l *Layout, r geom.Rect) {
	t.Helper()
	if err := l.AddRect(r); err != nil {
		t.Fatalf("AddRect(%v): %v", r, err)
	}
}
