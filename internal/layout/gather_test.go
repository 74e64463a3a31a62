package layout

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/golitho/hsd/internal/geom"
)

// randomLayout draws n rectangles around the origin (negative
// coordinates included) into an index of the given cell edge, then the
// shapes an index is likeliest to mishandle: one rectangle inserted
// twice, and one wide enough to land on the large list.
func randomLayout(t testing.TB, seed int64, gridNM, n int) *Layout {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l := NewWithGrid("random", gridNM)
	add := func(r geom.Rect) {
		if err := l.AddRect(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		x, y := rng.Intn(8192)-4096, rng.Intn(8192)-4096
		r := geom.R(x, y, x+1+rng.Intn(700), y+1+rng.Intn(700))
		add(r)
		if i == n/2 {
			add(r)
		}
	}
	// 65 x 65 cells: past maxIndexCells whatever the cell edge.
	x, y := rng.Intn(2048)-1024, rng.Intn(2048)-1024
	add(geom.R(x, y, x+65*l.gridNM, y+65*l.gridNM))
	if len(l.large) == 0 {
		t.Fatal("fixture: nothing on the large list")
	}
	return l
}

// checkClipAt holds ClipAt and Query to their definitions, computed
// without the index: every shape in insertion order that overlaps the
// window, clipped to it (ClipAt) or whole (Query).
func checkClipAt(t *testing.T, l *Layout, c geom.Point, size int) {
	t.Helper()
	clip, err := l.ClipAt(c, size, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var wantClipped, wantWhole []geom.Rect
	for _, s := range l.Shapes() {
		if i := s.Intersect(clip.Window); !i.Empty() {
			wantClipped = append(wantClipped, i)
			wantWhole = append(wantWhole, s)
		}
	}
	if !slices.Equal(clip.Shapes, wantClipped) {
		t.Fatalf("ClipAt(%v, %d) on grid %d:\n got %v\nwant %v", c, size, l.gridNM, clip.Shapes, wantClipped)
	}
	if clip.Shapes == nil {
		t.Fatalf("ClipAt(%v, %d): nil Shapes; an empty window's were always non-nil", c, size)
	}
	if got := l.Query(clip.Window); !slices.Equal(got, wantWhole) {
		t.Fatalf("Query(%v) on grid %d:\n got %v\nwant %v", clip.Window, l.gridNM, got, wantWhole)
	}
}

func TestClipAtMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		seed      int64
		gridNM, n int
	}{
		{1, DefaultGridNM, 400},
		{2, 256, 300},
		{3, 1000, 200}, // a cell edge that divides nothing
		{4, 64, 150},
		{5, DefaultGridNM, 0}, // only the large shape
	} {
		l := randomLayout(t, tc.seed, tc.gridNM, tc.n)
		rng := rand.New(rand.NewSource(tc.seed + 100))
		b := l.Bounds()
		for i := 0; i < 200; i++ {
			// Centres up to a window beyond bounds: inside, overhanging
			// an edge, and wholly outside.
			c := geom.Pt(b.Min.X-1024+rng.Intn(b.Dx()+2048), b.Min.Y-1024+rng.Intn(b.Dy()+2048))
			checkClipAt(t, l, c, []int{1, 63, 512, 1024, 1025, 3000}[rng.Intn(6)])
		}
		checkClipAt(t, l, geom.Pt(b.Max.X+5000, b.Max.Y+5000), 1024) // nothing near
		// Everything: the large shape alone makes bounds a probe past
		// maxIndexCells, which takes the linear fallback.
		if l.cellSpan(b) <= maxIndexCells {
			t.Fatalf("grid %d: bounds %v stay within maxIndexCells", tc.gridNM, b)
		}
		checkClipAt(t, l, b.Center(), 4*(b.Dx()+b.Dy()))
	}
}

// FuzzClipAtMatchesBruteForce is the same differential check with the
// layout, the cell edge and the window all chosen by the fuzzer.
func FuzzClipAtMatchesBruteForce(f *testing.F) {
	f.Add(int64(1), 2048, 50, 0, 0, 1024)
	f.Add(int64(2), 64, 20, -3000, 2500, 512)   // small cells, negative centre
	f.Add(int64(3), 100, 10, 0, 0, 9000)        // probe past maxIndexCells
	f.Add(int64(4), 2048, 0, 100000, 100000, 7) // wholly outside bounds
	f.Add(int64(5), 1, 3, 10, 10, 33)           // one-unit cells: every shape is large
	f.Fuzz(func(t *testing.T, seed int64, gridNM, n, cx, cy, size int) {
		const lim = 1 << 20
		if gridNM < 1 || gridNM > lim || n < 0 || n > 200 || size < 1 || size > lim ||
			cx < -lim || cx > lim || cy < -lim || cy > lim {
			t.Skip()
		}
		checkClipAt(t, randomLayout(t, seed, gridNM, n), geom.Pt(cx, cy), size)
	})
}
