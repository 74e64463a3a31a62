package layout

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"github.com/golitho/hsd/internal/geom"
)

// clipAt extracts a clip and fails the test on error.
func clipAt(t *testing.T, l *Layout, c geom.Point) Clip {
	t.Helper()
	clip, err := l.ClipAt(c, 1024, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return clip
}

func TestFingerprintTranslationInvariant(t *testing.T) {
	l := New("a")
	shifted := New("b")
	const dx, dy = 70000, -3100
	rects := []geom.Rect{
		geom.R(10, 10, 200, 64),
		geom.R(300, 100, 364, 800),
		geom.R(-50, 400, 500, 460),
	}
	for _, r := range rects {
		if err := l.AddRect(r); err != nil {
			t.Fatal(err)
		}
		if err := shifted.AddRect(r.Translate(geom.Pt(dx, dy))); err != nil {
			t.Fatal(err)
		}
	}
	a := clipAt(t, l, geom.Pt(256, 256))
	b := clipAt(t, shifted, geom.Pt(256+dx, 256+dy))
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("translated clip fingerprint differs: %v vs %v", a.Fingerprint(), b.Fingerprint())
	}
}

func TestFingerprintOrderInvariant(t *testing.T) {
	rects := []geom.Rect{
		geom.R(0, 0, 100, 40),
		geom.R(200, 0, 300, 40),
		geom.R(0, 200, 100, 240),
	}
	fwd, rev := New("fwd"), New("rev")
	for i := range rects {
		if err := fwd.AddRect(rects[i]); err != nil {
			t.Fatal(err)
		}
		if err := rev.AddRect(rects[len(rects)-1-i]); err != nil {
			t.Fatal(err)
		}
	}
	a, b := clipAt(t, fwd, geom.Pt(150, 120)), clipAt(t, rev, geom.Pt(150, 120))
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on shape insertion order")
	}
}

func TestFingerprintDistinguishesGeometry(t *testing.T) {
	base := Clip{
		Window: geom.R(0, 0, 1024, 1024),
		Core:   geom.R(256, 256, 768, 768),
		Shapes: []geom.Rect{geom.R(10, 10, 200, 60)},
	}
	seen := map[Fingerprint]string{base.Fingerprint(): "base"}
	variants := map[string]Clip{
		"moved shape": {Window: base.Window, Core: base.Core,
			Shapes: []geom.Rect{geom.R(10, 12, 200, 62)}},
		"extra shape": {Window: base.Window, Core: base.Core,
			Shapes: []geom.Rect{geom.R(10, 10, 200, 60), geom.R(500, 500, 520, 520)}},
		"bigger core": {Window: base.Window, Core: geom.R(128, 128, 896, 896),
			Shapes: base.Shapes},
		"bigger window": {Window: geom.R(0, 0, 2048, 2048), Core: base.Core,
			Shapes: base.Shapes},
		"empty": {Window: base.Window, Core: base.Core},
	}
	for name, c := range variants {
		fp := c.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("%q collides with %q", name, prev)
		}
		seen[fp] = name
	}
}

// FuzzClipFingerprint asserts the two cache-correctness invariants of
// the canonical hash on fuzz-generated clips: translating a clip to any
// offset never changes its fingerprint, and clips with different
// canonical geometry never collide within the run's corpus.
func FuzzClipFingerprint(f *testing.F) {
	f.Add(int64(1), 3, 7000, -9000)
	f.Add(int64(42), 1, 0, 0)
	f.Add(int64(7), 12, -123456, 654321)
	corpus := map[Fingerprint]string{}
	f.Fuzz(func(t *testing.T, seed int64, n, dx, dy int) {
		if n < 0 || n > 64 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		clip := Clip{
			Window: geom.R(0, 0, 1024, 1024),
			Core:   geom.R(256, 256, 768, 768),
		}
		for i := 0; i < n; i++ {
			x0, y0 := rng.Intn(1000), rng.Intn(1000)
			clip.Shapes = append(clip.Shapes,
				geom.R(x0, y0, x0+1+rng.Intn(64), y0+1+rng.Intn(64)))
		}
		fp := clip.Fingerprint()

		d := geom.Pt(dx, dy)
		moved := Clip{Window: clip.Window.Translate(d), Core: clip.Core.Translate(d)}
		for _, s := range clip.Shapes {
			moved.Shapes = append(moved.Shapes, s.Translate(d))
		}
		if got := moved.Fingerprint(); got != fp {
			t.Fatalf("translation by %v changed fingerprint: %v vs %v", d, got, fp)
		}

		// Collision audit: identical canonical encodings may (must)
		// repeat, different ones never share a fingerprint.
		canon := canonicalKey(clip)
		if prev, ok := corpus[fp]; ok {
			if prev != canon {
				t.Fatalf("fingerprint collision:\n%s\nvs\n%s", prev, canon)
			}
		} else {
			corpus[fp] = canon
		}
	})
}

// canonicalKey renders the clip's canonical form as a comparable string
// (the fuzz target's independent notion of "same geometry").
func canonicalKey(c Clip) string {
	t := c.Translate()
	shapes := append([]geom.Rect(nil), t.Shapes...)
	for i := range shapes {
		for j := i + 1; j < len(shapes); j++ {
			if rectCompare(shapes[j], shapes[i]) < 0 {
				shapes[i], shapes[j] = shapes[j], shapes[i]
			}
		}
	}
	key := make([]byte, 0, 64+32*len(shapes))
	app := func(v int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		key = append(key, b[:]...)
	}
	for _, r := range append([]geom.Rect{t.Window, t.Core}, shapes...) {
		app(r.Min.X)
		app(r.Min.Y)
		app(r.Max.X)
		app(r.Max.Y)
	}
	return fmt.Sprintf("%x", key)
}
