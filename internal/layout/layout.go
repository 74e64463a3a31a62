// Package layout models a single-layer VLSI mask layout as a collection of
// axis-aligned rectangles with a uniform-grid spatial index, and provides
// clip (window) extraction for hotspot detection.
//
// Rectilinear polygons are accepted and decomposed into rectangles on
// insertion. Coordinates are integer database units (nanometres).
package layout

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/golitho/hsd/internal/geom"
)

// DefaultGridNM is the spatial-index cell edge used by New: one clip
// edge. The built index may use a coarser one (see buildIndex).
const DefaultGridNM = 1024

// ErrEmptyShape is returned when an empty rectangle is inserted.
var ErrEmptyShape = errors.New("layout: empty shape")

// Layout is a single-layer mask layout. It is not safe for concurrent
// mutation; concurrent reads are safe once construction is complete.
// The first query after the last insertion builds the spatial index,
// so a Layout holds a lock and must not be copied (go vet's copylocks
// check says so).
type Layout struct {
	Name string

	shapes []geom.Rect
	bounds geom.Rect
	gridNM int
	// large holds indices of shapes spanning more than maxIndexCells
	// cells of edge gridNM; they are scanned linearly by every query
	// instead of being indexed, which bounds index memory even for
	// degenerate inputs (e.g. a parsed rectangle with near-int32 extents).
	large []int32

	// index is the cell index over shapes, nil until the first query
	// after the last AddRect; mu serialises building it.
	mu    sync.Mutex
	index atomic.Pointer[cellIndex]
}

// maxIndexCells bounds how many cells of edge gridNM a shape may cover
// and stay off the large list, and a query's window may cover before
// the query falls back to a linear scan.
const maxIndexCells = 1 << 12

// maxIndexSide is the side of the largest square of cells a query may
// cover and stay on the index: maxIndexSide² is maxIndexCells.
const maxIndexSide = 1 << 6

// indexFactor bounds the built index: it has at most indexFactor cells
// and indexFactor entries a shape (or 17 x 17, whichever is more), so its
// memory is linear in the shape count whatever the shapes are.
const indexFactor = 4

// maxIndexEdge is where buildIndex stops coarsening the grid: cells this
// large cover any bounds in at most 17 x 17 of them.
const maxIndexEdge = 1 << 60

// New returns an empty layout with the default index granularity.
func New(name string) *Layout { return NewWithGrid(name, DefaultGridNM) }

// NewWithGrid returns an empty layout whose spatial index uses cells of
// the given edge length in database units, or coarser ones where that
// would bound the index's memory. gridNM must be positive.
func NewWithGrid(name string, gridNM int) *Layout {
	if gridNM <= 0 {
		gridNM = DefaultGridNM
	}
	return &Layout{Name: name, gridNM: gridNM}
}

// NumShapes returns the number of stored rectangles.
func (l *Layout) NumShapes() int { return len(l.shapes) }

// Bounds returns the bounding box of all shapes, empty when no shapes exist.
func (l *Layout) Bounds() geom.Rect { return l.bounds }

// Shapes returns a copy of all stored rectangles.
func (l *Layout) Shapes() []geom.Rect {
	out := make([]geom.Rect, len(l.shapes))
	copy(out, l.shapes)
	return out
}

// AddRect inserts one rectangle. Empty rectangles are rejected.
func (l *Layout) AddRect(r geom.Rect) error {
	r, err := checkRect(r)
	if err != nil {
		return err
	}
	l.add(r)
	return nil
}

// checkRect returns r canonical, or an error when it is empty.
func checkRect(r geom.Rect) (geom.Rect, error) {
	r = r.Canon()
	if r.Empty() {
		return r, fmt.Errorf("%w: %v", ErrEmptyShape, r)
	}
	return r, nil
}

// add inserts a canonical, non-empty rectangle.
func (l *Layout) add(r geom.Rect) {
	if l.cellSpan(r) > maxIndexCells {
		l.large = append(l.large, int32(len(l.shapes)))
	}
	l.shapes = append(l.shapes, r)
	l.bounds = l.bounds.Union(r)
	if l.index.Load() != nil {
		l.index.Store(nil)
	}
}

// AddPolygon decomposes a rectilinear polygon into rectangles and inserts
// them all; nothing is inserted if the polygon is invalid.
func (l *Layout) AddPolygon(p geom.Polygon) error {
	rects, err := p.Rectangles()
	if err != nil {
		return fmt.Errorf("layout: add polygon: %w", err)
	}
	for _, r := range rects {
		if err := l.AddRect(r); err != nil {
			return err
		}
	}
	return nil
}

// cellIndex is the spatial index: a dense grid of square cells over the
// layout's bounds in compressed sparse rows. The shapes overlapping the
// grid's i-th cell (row-major) are rects[off[i]:off[i+1]], in insertion
// order, with their indices into Layout.shapes alongside in ids. Shapes
// on the large list are not in it. Cells are aligned to multiples of
// edge, so cell (cx, cy) covers [cx*edge, (cx+1)*edge) x [cy*edge, ...).
type cellIndex struct {
	edge     int
	cx0, cy0 int // the grid's first cell
	nx, ny   int // cells a row, rows
	off      []int32
	rects    []geom.Rect
	ids      []int32
}

// loadIndex returns the layout's index, building it on the first call
// after the last AddRect. Concurrent callers share one build.
func (l *Layout) loadIndex() *cellIndex {
	if ix := l.index.Load(); ix != nil {
		return ix
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ix := l.index.Load()
	if ix == nil {
		ix = l.buildIndex()
		l.index.Store(ix)
	}
	return ix
}

// buildIndex indexes every shape off the large list. The cell edge starts
// at gridNM and doubles until the grid has at most indexFactor cells a
// shape and the shapes cover at most indexFactor cells each on average
// (or the edge reaches maxIndexEdge).
func (l *Layout) buildIndex() *cellIndex {
	limit := max(indexFactor*len(l.shapes), 17*17)
	ix := &cellIndex{edge: l.gridNM}
	for ; ; ix.edge *= 2 {
		var ok bool
		if ix.cx0, ix.cy0, ix.nx, ix.ny, ok = cellGrid(l.bounds, ix.edge, limit); !ok {
			continue
		}
		// off[c+2] counts cell c's entries, so that after the prefix sum
		// off[c+1] is where cell c's entries start.
		ix.off = make([]int32, ix.nx*ix.ny+2)
		l.eachIndexed(func(_ int32, r geom.Rect) {
			cx0, cy0, cx1, cy1 := cellRange(r, ix.edge)
			for cy := cy0; cy <= cy1; cy++ {
				row := ix.cell(0, cy) + 2
				for cx := cx0; cx <= cx1; cx++ {
					ix.off[row+cx]++
				}
			}
		})
		for i := 2; i < len(ix.off); i++ {
			ix.off[i] += ix.off[i-1]
		}
		if int(ix.off[len(ix.off)-1]) <= limit || ix.edge >= maxIndexEdge {
			break
		}
	}
	n := ix.off[len(ix.off)-1]
	ix.rects = make([]geom.Rect, n)
	ix.ids = make([]int32, n)
	// Each entry goes to its cell's cursor off[c+1], which ends at the
	// next cell's start.
	l.eachIndexed(func(id int32, r geom.Rect) {
		cx0, cy0, cx1, cy1 := cellRange(r, ix.edge)
		for cy := cy0; cy <= cy1; cy++ {
			row := ix.cell(0, cy) + 1
			for cx := cx0; cx <= cx1; cx++ {
				at := ix.off[row+cx]
				ix.off[row+cx]++
				ix.rects[at], ix.ids[at] = r, id
			}
		}
	})
	ix.off = ix.off[:len(ix.off)-1]
	return ix
}

// eachIndexed calls f with every shape off the large list, in insertion
// order.
func (l *Layout) eachIndexed(f func(id int32, r geom.Rect)) {
	large := l.large
	for id, r := range l.shapes {
		if len(large) > 0 && large[0] == int32(id) {
			large = large[1:]
			continue
		}
		f(int32(id), r)
	}
}

// cellGrid returns the first of the edge-e cells r covers and how many
// it covers across and down, or false when that is more than limit
// cells.
func cellGrid(r geom.Rect, e, limit int) (cx0, cy0, nx, ny int, ok bool) {
	cx0, cy0, cx1, cy1 := cellRange(r, e)
	// The differences are taken unsigned: they cannot exceed 2^64-1.
	w, h := uint64(cx1-cx0), uint64(cy1-cy0)
	if w >= uint64(limit) || h >= uint64(limit) || (w+1)*(h+1) > uint64(limit) {
		return 0, 0, 0, 0, false
	}
	return cx0, cy0, int(w) + 1, int(h) + 1, true
}

// cell returns the row-major position of cell (cx, cy) in the grid.
func (ix *cellIndex) cell(cx, cy int) int { return (cy-ix.cy0)*ix.nx + cx - ix.cx0 }

// cellRange returns the inclusive range of edge-e cells r covers.
func cellRange(r geom.Rect, e int) (cx0, cy0, cx1, cy1 int) {
	return floorDiv(r.Min.X, e), floorDiv(r.Min.Y, e), floorDiv(r.Max.X-1, e), floorDiv(r.Max.Y-1, e)
}

// gatherStack is how many shape ids a query collects before its buffer
// moves to the heap: the caller's array is this long, so a typical clip
// window gathers without allocating.
const gatherStack = 128

// probe returns the index and the inclusive range of its cells a query
// of the canonical window walks, an empty range when the window misses
// the layout's bounds. linear is true instead when the window covers
// more than maxIndexCells cells of edge gridNM: the query then tests
// every shape.
func (l *Layout) probe(window geom.Rect) (ix *cellIndex, cx0, cy0, cx1, cy1 int, linear bool) {
	// Shapes only exist inside bounds, so probing the intersection keeps
	// the cell walk proportional to the layout, not the window.
	p := window.Intersect(l.bounds)
	if p.Empty() {
		return nil, 0, 0, -1, -1, false
	}
	if !l.fewCells(p) && l.cellSpan(p) > maxIndexCells {
		return nil, 0, 0, -1, -1, true
	}
	ix = l.loadIndex()
	cx0, cy0, cx1, cy1 = cellRange(p, ix.edge)
	return ix, cx0, cy0, cx1, cy1, false
}

// gather appends to ids the index of every shape overlapping the
// canonical window, ascending (insertion order) and without duplicates.
// It is the one implementation under Query and ClipAt and reads the
// layout only, so concurrent queries stay safe.
func (l *Layout) gather(window geom.Rect, ids []int32) []int32 {
	ix, cx0, cy0, cx1, cy1, linear := l.probe(window)
	if linear {
		for id := range l.shapes {
			if l.shapes[id].Overlaps(window) {
				ids = append(ids, int32(id))
			}
		}
		return ids
	}
	// A shape covering several probed cells is taken only from the
	// first: the cell holding its Min corner, or the probe's first
	// column or row where it starts left of or below the probe.
	for cy := cy0; cy <= cy1; cy++ {
		minY, row := cy*ix.edge, ix.cell(0, cy)
		for cx := cx0; cx <= cx1; cx++ {
			minX, c := cx*ix.edge, row+cx
			for i := ix.off[c]; i < ix.off[c+1]; i++ {
				s := ix.rects[i]
				if s.Overlaps(window) && (s.Min.X >= minX || cx == cx0) && (s.Min.Y >= minY || cy == cy0) {
					ids = append(ids, ix.ids[i])
				}
			}
		}
	}
	for _, id := range l.large {
		if l.shapes[id].Overlaps(window) {
			ids = append(ids, id)
		}
	}
	// Cells interleave their shapes' ids, and Query promises insertion
	// order. A clip's raster does not need it: at the extractors' one
	// pitch every coverage sum is exact in any order (DESIGN §8).
	slices.Sort(ids)
	return ids
}

// Query returns all rectangles overlapping the window, in insertion order,
// without duplicates. Shapes merely touching the window edge (zero-area
// overlap) are excluded, consistent with half-open Rect semantics.
func (l *Layout) Query(window geom.Rect) []geom.Rect {
	window = window.Canon()
	if window.Empty() {
		return nil
	}
	var buf [gatherStack]int32
	ids := l.gather(window, buf[:0])
	out := make([]geom.Rect, len(ids))
	for i, id := range ids {
		out[i] = l.shapes[id]
	}
	return out
}

// MaxClipShapes bounds the shapes a clip may hold: ClipAt, CutClip and
// FingerprintAt refuse a window over it with ErrTooManyShapes.
// Rasterising a clip costs its shapes times the pixels each covers, so
// without a bound a served request or a scanned layout chooses its own
// CPU time. It sits far above the busiest window generated here: 36
// shapes over DefaultSuiteConfig seeds 1-3 and SmallSuiteConfig, 23
// over the benchmark chips.
const MaxClipShapes = 1024

// ErrTooManyShapes is wrapped by the error for a window over
// MaxClipShapes, which names the window's centre and its shape count.
var ErrTooManyShapes = fmt.Errorf("clip holds more than %d shapes", MaxClipShapes)

func tooManyShapes(c geom.Point, n int) error {
	return fmt.Errorf("layout: clip at %v: %w: %d", c, ErrTooManyShapes, n)
}

// Clip is a square window of a layout together with the shapes overlapping
// it, clipped to the window. Clips are the unit of hotspot classification.
type Clip struct {
	// Window is the clip extent in layout coordinates.
	Window geom.Rect
	// Core is the central region in which printing failures count as
	// hotspots (the contest convention: only core defects are scored).
	Core geom.Rect
	// Shapes are the layout rectangles overlapping Window, clipped to it.
	Shapes []geom.Rect
}

// clipFrame returns the window and core of the size x size clip centred
// at c, the geometry ClipAt and FingerprintAt share.
func clipFrame(c geom.Point, size int, coreFrac float64) (win, core geom.Rect, err error) {
	if size <= 0 {
		return win, core, fmt.Errorf("layout: clip size must be positive, got %d", size)
	}
	if coreFrac <= 0 || coreFrac > 1 {
		return win, core, fmt.Errorf("layout: coreFrac must be in (0,1], got %v", coreFrac)
	}
	half := size / 2
	win = geom.R(c.X-half, c.Y-half, c.X-half+size, c.Y-half+size)
	coreHalf := int(float64(size) * coreFrac / 2)
	core = geom.R(c.X-coreHalf, c.Y-coreHalf, c.X+coreHalf, c.Y+coreHalf)
	return win, core, nil
}

// ClipAt extracts a size x size clip centred at c. coreFrac in (0, 1]
// determines the side length of the core region relative to the window.
// A window over MaxClipShapes is refused before its clip is built.
func (l *Layout) ClipAt(c geom.Point, size int, coreFrac float64) (Clip, error) {
	win, core, err := clipFrame(c, size, coreFrac)
	if err != nil {
		return Clip{}, err
	}
	var buf [gatherStack]int32
	ids := l.gather(win, buf[:0])
	if len(ids) > MaxClipShapes {
		return Clip{}, tooManyShapes(c, len(ids))
	}
	clipped := make([]geom.Rect, len(ids))
	for i, id := range ids {
		// Non-empty: gather kept only shapes overlapping win.
		clipped[i] = l.shapes[id].Intersect(win)
	}
	return Clip{Window: win, Core: core, Shapes: clipped}, nil
}

// CutClip is ClipAt on shapes held in a slice: every shape overlapping
// the size x size window centred at c, in slice order, clipped to it,
// under the same MaxClipShapes bound. It
// builds no index, which is the cheaper way to clip shapes that are
// queried once, such as a served request's (see ReadShapes).
func CutClip(shapes []geom.Rect, c geom.Point, size int, coreFrac float64) (Clip, error) {
	win, core, err := clipFrame(c, size, coreFrac)
	if err != nil {
		return Clip{}, err
	}
	clipped := make([]geom.Rect, 0, len(shapes))
	for _, s := range shapes {
		if s.Overlaps(win) {
			clipped = append(clipped, s.Intersect(win))
		}
	}
	if len(clipped) > MaxClipShapes {
		return Clip{}, tooManyShapes(c, len(clipped))
	}
	return Clip{Window: win, Core: core, Shapes: clipped}, nil
}

// FingerprintAt returns ClipAt(c, size, coreFrac).Fingerprint() and the
// clip's shape count, or ClipAt's refusal, without building the clip: each shape the index
// holds is clipped, moved to the origin and hashed where it lies, in
// whatever order the cells hold them (the hash is a sum), so keying a
// window allocates nothing and sorts nothing.
func (l *Layout) FingerprintAt(c geom.Point, size int, coreFrac float64) (Fingerprint, int, error) {
	win, core, err := clipFrame(c, size, coreFrac)
	if err != nil {
		return Fingerprint{}, 0, err
	}
	d := geom.Pt(-win.Min.X, -win.Min.Y)
	var h shapeSum
	ix, cx0, cy0, cx1, cy1, linear := l.probe(win)
	if linear {
		for _, s := range l.shapes {
			if s.Overlaps(win) {
				h.add(s.Intersect(win).Translate(d))
			}
		}
	} else {
		// gather's owner rule: each shape once, from its first probed cell.
		for cy := cy0; cy <= cy1; cy++ {
			minY, row := cy*ix.edge, ix.cell(0, cy)
			for cx := cx0; cx <= cx1; cx++ {
				minX, c := cx*ix.edge, row+cx
				for _, s := range ix.rects[ix.off[c]:ix.off[c+1]] {
					if s.Overlaps(win) && (s.Min.X >= minX || cx == cx0) && (s.Min.Y >= minY || cy == cy0) {
						h.add(s.Intersect(win).Translate(d))
					}
				}
			}
		}
		for _, id := range l.large {
			if s := l.shapes[id]; s.Overlaps(win) {
				h.add(s.Intersect(win).Translate(d))
			}
		}
	}
	if h.n > MaxClipShapes {
		return Fingerprint{}, 0, tooManyShapes(c, int(h.n))
	}
	return h.fingerprint(win.Translate(d), core.Translate(d)), int(h.n), nil
}

// Translate returns a copy of the clip moved so that Window.Min becomes the
// origin. Useful for canonicalizing clips before feature extraction.
func (c Clip) Translate() Clip {
	d := geom.Pt(-c.Window.Min.X, -c.Window.Min.Y)
	out := Clip{
		Window: c.Window.Translate(d),
		Core:   c.Core.Translate(d),
		Shapes: make([]geom.Rect, len(c.Shapes)),
	}
	for i, s := range c.Shapes {
		out.Shapes[i] = s.Translate(d)
	}
	return out
}

// Density returns the fraction of the window area covered by shapes,
// assuming the shapes do not overlap (true for generated layouts).
func (c Clip) Density() float64 {
	if c.Window.Empty() {
		return 0
	}
	var covered int64
	for _, s := range c.Shapes {
		covered += s.Intersect(c.Window).Area()
	}
	return float64(covered) / float64(c.Window.Area())
}

// cellSpan returns the number of gridNM cells r covers, saturating at
// maxIndexCells+1 so callers can compare without integer overflow.
func (l *Layout) cellSpan(r geom.Rect) int {
	_, _, nx, ny, ok := cellGrid(r, l.gridNM, maxIndexCells)
	if !ok {
		return maxIndexCells + 1
	}
	return nx * ny
}

// fewCells reports, without cellSpan's divisions, that r covers at
// most maxIndexCells cells of edge gridNM: a side of at most
// maxIndexSide-1 cell edges meets at most maxIndexSide cells. False
// says nothing; a clip window is far below the bound.
func (l *Layout) fewCells(r geom.Rect) bool {
	g := uint64(l.gridNM)
	if g > math.MaxUint64/(maxIndexSide-1) {
		return false
	}
	// Unsigned differences, as in cellGrid: exact for any canonical r.
	side := (maxIndexSide - 1) * g
	return uint64(r.Max.X)-uint64(r.Min.X) <= side && uint64(r.Max.Y)-uint64(r.Min.Y) <= side
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
