package layout

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/golitho/hsd/internal/geom"
)

// hostileBody is a GLT body of n copies of one square of the given edge
// at the origin: a few dozen bytes a line that each ask the index for
// every cell the square covers.
func hostileBody(n, edge int) []byte {
	var b bytes.Buffer
	b.WriteString("GLT 1\nLAYOUT hostile\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "RECT 0 0 %d %d\n", edge, edge)
	}
	b.WriteString("END\n")
	return b.Bytes()
}

// TestIndexMemoryIsLinear parses, clips and keys layouts whose shapes
// each cover thousands of index cells, as a POST /score body may. The
// index may hold at most indexFactor cells and entries a shape, so the
// whole request allocates a few times its body, not thousands.
func TestIndexMemoryIsLinear(t *testing.T) {
	// 131072 nm is 128 x 128 cells of the default grid (the large list);
	// 64 default cells is the widest shape that stays off it.
	for _, edge := range []int{131072, 64 * DefaultGridNM} {
		body := hostileBody(2000, edge)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l, err := Read(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		// The window holds every shape, over MaxClipShapes: ClipAt and
		// FingerprintAt refuse it with one error, and Query, which has no
		// bound, counts them.
		c := geom.Pt(edge/2, edge/2)
		_, errClip := l.ClipAt(c, 1024, 0.5)
		_, _, errKey := l.FingerprintAt(c, 1024, 0.5)
		n := len(l.Query(geom.R(c.X-512, c.Y-512, c.X+512, c.Y+512)))
		runtime.ReadMemStats(&after)
		if n != 2000 || !errors.Is(errClip, ErrTooManyShapes) || errKey == nil || errKey.Error() != errClip.Error() {
			t.Fatalf("edge %d: Query %d shapes; ClipAt err %v, FingerprintAt err %v", edge, n, errClip, errKey)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
			t.Errorf("edge %d: a %d-byte body allocated %d bytes", edge, len(body), got)
		}
		ix := l.index.Load()
		if cells, entries := len(ix.off)-1, len(ix.rects); cells > indexFactor*l.NumShapes() || entries > indexFactor*l.NumShapes() {
			t.Errorf("edge %d: index of %d cells and %d entries for %d shapes", edge, cells, entries, l.NumShapes())
		}
	}
}

// TestIndexFarApartShapes indexes shapes at both ends of the coordinate
// range: the cell edge doubles until a few cells cover everything.
func TestIndexFarApartShapes(t *testing.T) {
	l := NewWithGrid("far", 1)
	for _, c := range []int{math.MinInt + 5, 0, math.MaxInt - 5} {
		mustAdd(t, l, geom.R(c-5, c-5, c+5, c+5))
	}
	for _, c := range []int{math.MinInt + 5, 0, math.MaxInt - 5} {
		checkClipAt(t, l, geom.Pt(c, c), 8)
	}
	// The shape at the origin straddles four cells of any edge.
	if ix := l.index.Load(); len(ix.off)-1 > 17*17 || len(ix.rects) > indexFactor*3 {
		t.Fatalf("index of %d cells and %d entries for 3 shapes", len(ix.off)-1, len(ix.rects))
	}
}

// TestAddRectAfterQuery inserts a shape outside the bounds an index was
// built over: every reader must see it, not the stale index.
func TestAddRectAfterQuery(t *testing.T) {
	l := New("grow")
	mustAdd(t, l, geom.R(0, 0, 100, 100))
	if got := l.Query(geom.R(0, 0, 5000, 5000)); len(got) != 1 {
		t.Fatalf("Query = %v, want one shape", got)
	}
	far := geom.R(4000, 4000, 4100, 4100)
	mustAdd(t, l, far)
	if got := l.Query(geom.R(3500, 3500, 4500, 4500)); !slices.Equal(got, []geom.Rect{far}) {
		t.Fatalf("Query after AddRect = %v, want [%v]", got, far)
	}
	clip, err := l.ClipAt(far.Center(), 1024, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(clip.Shapes, []geom.Rect{far}) {
		t.Fatalf("ClipAt after AddRect = %v, want [%v]", clip.Shapes, far)
	}
	fp, n, err := l.FingerprintAt(far.Center(), 1024, 0.5)
	if err != nil || n != 1 || fp != clip.Fingerprint() {
		t.Fatalf("FingerprintAt after AddRect = %v, %d shapes, %v; want ClipAt's key, 1 shape", fp, n, err)
	}
}

// TestConcurrentFirstQueries makes the first queries of a fresh layout
// from 8 goroutines at once, so they race to build the index (run it
// under -race). Every answer must equal the one a serial reader of an
// identical layout gets.
func TestConcurrentFirstQueries(t *testing.T) {
	const readers = 8
	serial := randomLayout(t, 7, DefaultGridNM, 400)
	b := serial.Bounds()
	type answer struct {
		clip  []geom.Rect
		whole []geom.Rect
		fp    Fingerprint
		n     int
	}
	centres := make([]geom.Point, 50)
	want := make([]answer, len(centres))
	ask := func(l *Layout, c geom.Point) answer {
		clip, err := l.ClipAt(c, 1024, 0.5)
		if err != nil {
			t.Error(err)
		}
		fp, n, err := l.FingerprintAt(c, 1024, 0.5)
		if err != nil {
			t.Error(err)
		}
		return answer{clip.Shapes, l.Query(clip.Window), fp, n}
	}
	for i := range centres {
		centres[i] = geom.Pt(b.Min.X+i*b.Dx()/len(centres), b.Min.Y+(i*7%len(centres))*b.Dy()/len(centres))
		want[i] = ask(serial, centres[i])
	}
	fresh := randomLayout(t, 7, DefaultGridNM, 400)
	var start, done sync.WaitGroup
	start.Add(1)
	for r := 0; r < readers; r++ {
		done.Add(1)
		go func(r int) {
			defer done.Done()
			start.Wait()
			for k := range centres {
				i := (k + r*len(centres)/readers) % len(centres)
				got := ask(fresh, centres[i])
				if !slices.Equal(got.clip, want[i].clip) || !slices.Equal(got.whole, want[i].whole) || got.fp != want[i].fp || got.n != want[i].n {
					t.Errorf("reader %d, window at %v: %+v, serial %+v", r, centres[i], got, want[i])
					return
				}
			}
		}(r)
	}
	start.Done()
	done.Wait()
}

// TestFewCellsImpliesIndexable: the division-free test a probe takes
// first never keeps a window on the index that cellSpan would send to
// the linear scan, at the bound's edge (sides of exactly 63 and 64 cell
// edges at every offset within a cell) and at extreme coordinates.
func TestFewCellsImpliesIndexable(t *testing.T) {
	for _, g := range []int{1, 3, 256, 1024, 2048, math.MaxInt64 / 62, math.MaxInt64} {
		l := NewWithGrid("few", g)
		check := func(r geom.Rect) {
			if l.fewCells(r) && l.cellSpan(r) > maxIndexCells {
				t.Fatalf("grid %d: %v passes fewCells but covers %d cells", g, r, l.cellSpan(r))
			}
		}
		for _, off := range []int{0, 1, g / 2, g - 1, -1, -g / 2} {
			for _, side := range []int{1, 62 * g, 63 * g, 63*g + 1, 64 * g} {
				if side <= 0 || off > math.MaxInt64-side {
					continue
				}
				check(geom.R(off, off, off+side, off+side))
				check(geom.R(off, 0, off+side, 1))
			}
		}
		check(geom.R(math.MinInt64/2, math.MinInt64/2, math.MaxInt64/2, math.MaxInt64/2))
	}
	if l := New("few"); !l.fewCells(geom.R(0, 0, 1024, 1024)) {
		t.Fatal("a clip window at the default grid takes the divisions")
	}
}
