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
	"slices"

	"github.com/golitho/hsd/internal/geom"
)

// DefaultGridNM is the spatial-index cell edge used by New.
const DefaultGridNM = 2048

// ErrEmptyShape is returned when an empty rectangle is inserted.
var ErrEmptyShape = errors.New("layout: empty shape")

// Layout is a single-layer mask layout. It is not safe for concurrent
// mutation; concurrent reads are safe once construction is complete.
type Layout struct {
	Name string

	shapes []geom.Rect
	bounds geom.Rect
	gridNM int
	// cells maps grid cell -> indices into shapes overlapping that cell.
	cells map[cellKey][]int32
	// large holds indices of shapes spanning more than maxIndexCells grid
	// cells; they are scanned linearly by every query instead of being
	// fanned out into the cell map, which bounds index memory even for
	// degenerate inputs (e.g. a parsed rectangle with near-int32 extents).
	large []int32
}

// maxIndexCells bounds how many grid cells a single shape may fan out to
// in the cell map, and how many cells a query enumerates before falling
// back to a linear scan.
const maxIndexCells = 1 << 12

type cellKey struct{ cx, cy int }

// New returns an empty layout with the default index granularity.
func New(name string) *Layout { return NewWithGrid(name, DefaultGridNM) }

// NewWithGrid returns an empty layout whose spatial index uses cells of the
// given edge length in database units. gridNM must be positive.
func NewWithGrid(name string, gridNM int) *Layout {
	if gridNM <= 0 {
		gridNM = DefaultGridNM
	}
	return &Layout{
		Name:   name,
		gridNM: gridNM,
		cells:  make(map[cellKey][]int32),
	}
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
	r = r.Canon()
	if r.Empty() {
		return fmt.Errorf("%w: %v", ErrEmptyShape, r)
	}
	idx := int32(len(l.shapes))
	l.shapes = append(l.shapes, r)
	l.bounds = l.bounds.Union(r)
	if l.cellSpan(r) > maxIndexCells {
		l.large = append(l.large, idx)
		return nil
	}
	cx0, cy0, cx1, cy1 := l.cellRange(r)
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			k := cellKey{cx: cx, cy: cy}
			l.cells[k] = append(l.cells[k], idx)
		}
	}
	return nil
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

// cellRange returns the inclusive index-cell range r covers.
func (l *Layout) cellRange(r geom.Rect) (cx0, cy0, cx1, cy1 int) {
	return floorDiv(r.Min.X, l.gridNM), floorDiv(r.Min.Y, l.gridNM),
		floorDiv(r.Max.X-1, l.gridNM), floorDiv(r.Max.Y-1, l.gridNM)
}

// gatherStack is how many shape ids a query collects before its buffer
// moves to the heap: the caller's array is this long, so a typical clip
// window gathers without allocating.
const gatherStack = 128

// gather appends to ids the index of every shape overlapping the
// canonical window, ascending (insertion order) and without duplicates.
// It is the one implementation under Query and ClipAt and reads the
// layout only, so concurrent queries stay safe.
func (l *Layout) gather(window geom.Rect, ids []int32) []int32 {
	// Shapes only exist inside bounds, so probing the intersection keeps
	// the cell walk proportional to the layout, not the window.
	probe := window.Intersect(l.bounds)
	if probe.Empty() {
		return ids
	}
	if l.cellSpan(probe) > maxIndexCells {
		// Degenerate extent: scan every shape instead of the cell map.
		for id := range l.shapes {
			if l.shapes[id].Overlaps(window) {
				ids = append(ids, int32(id))
			}
		}
		return ids
	}
	cx0, cy0, cx1, cy1 := l.cellRange(probe)
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			for _, id := range l.cells[cellKey{cx: cx, cy: cy}] {
				if l.shapes[id].Overlaps(window) {
					ids = append(ids, id)
				}
			}
		}
	}
	// A shape is on the large list or in the cell map, never both, but
	// one spanning several probed cells was appended once per cell.
	for _, id := range l.large {
		if l.shapes[id].Overlaps(window) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
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

// ClipAt extracts a size x size clip centred at c. coreFrac in (0, 1]
// determines the side length of the core region relative to the window.
func (l *Layout) ClipAt(c geom.Point, size int, coreFrac float64) (Clip, error) {
	if size <= 0 {
		return Clip{}, fmt.Errorf("layout: clip size must be positive, got %d", size)
	}
	if coreFrac <= 0 || coreFrac > 1 {
		return Clip{}, fmt.Errorf("layout: coreFrac must be in (0,1], got %v", coreFrac)
	}
	half := size / 2
	win := geom.R(c.X-half, c.Y-half, c.X-half+size, c.Y-half+size)
	coreHalf := int(float64(size) * coreFrac / 2)
	core := geom.R(c.X-coreHalf, c.Y-coreHalf, c.X+coreHalf, c.Y+coreHalf)
	var buf [gatherStack]int32
	ids := l.gather(win, buf[:0])
	clipped := make([]geom.Rect, len(ids))
	for i, id := range ids {
		// Non-empty: gather kept only shapes overlapping win.
		clipped[i] = l.shapes[id].Intersect(win)
	}
	return Clip{Window: win, Core: core, Shapes: clipped}, nil
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

// cellSpan returns the number of index cells r covers, saturating at
// maxIndexCells+1 so callers can compare without integer overflow.
func (l *Layout) cellSpan(r geom.Rect) int {
	cx0, cy0, cx1, cy1 := l.cellRange(r)
	w, h := int64(cx1)-int64(cx0)+1, int64(cy1)-int64(cy0)+1
	if w > maxIndexCells || h > maxIndexCells {
		return maxIndexCells + 1
	}
	if n := w * h; n <= maxIndexCells {
		return int(n)
	}
	return maxIndexCells + 1
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
