package geom

import (
	"errors"
	"fmt"
)

// ErrNotRectilinear is returned when a polygon has a non-axis-parallel edge.
var ErrNotRectilinear = errors.New("geom: polygon edge is not axis-parallel")

// Polygon is a simple rectilinear polygon given as an ordered vertex ring.
// The ring is implicitly closed: the last vertex connects back to the first.
// Vertices may wind in either direction.
type Polygon []Point

// Validate checks that p has at least 4 vertices and that every edge is
// axis-parallel with nonzero length.
func (p Polygon) Validate() error {
	if len(p) < 4 {
		return fmt.Errorf("geom: polygon needs >= 4 vertices, got %d", len(p))
	}
	for i := range p {
		a, b := p[i], p[(i+1)%len(p)]
		horizontal := a.Y == b.Y && a.X != b.X
		vertical := a.X == b.X && a.Y != b.Y
		if !horizontal && !vertical {
			return fmt.Errorf("%w: edge %v -> %v", ErrNotRectilinear, a, b)
		}
	}
	return nil
}

// Bounds returns the bounding rectangle of p, empty for an empty polygon.
func (p Polygon) Bounds() Rect {
	if len(p) == 0 {
		return Rect{}
	}
	r := Rect{Min: p[0], Max: p[0]}
	for _, v := range p[1:] {
		r.Min.X = min(r.Min.X, v.X)
		r.Min.Y = min(r.Min.Y, v.Y)
		r.Max.X = max(r.Max.X, v.X)
		r.Max.Y = max(r.Max.Y, v.Y)
	}
	return r
}

// Area returns the absolute enclosed area of p via the shoelace formula.
func (p Polygon) Area() int64 {
	if len(p) < 3 {
		return 0
	}
	var s int64
	for i := range p {
		a, b := p[i], p[(i+1)%len(p)]
		s += int64(a.X)*int64(b.Y) - int64(b.X)*int64(a.Y)
	}
	if s < 0 {
		s = -s
	}
	return s / 2
}

// Translate returns p moved by d.
func (p Polygon) Translate(d Point) Polygon {
	out := make(Polygon, len(p))
	for i, v := range p {
		out[i] = v.Add(d)
	}
	return out
}

// Rectangles decomposes a valid rectilinear polygon into non-overlapping
// rectangles using horizontal slab decomposition. The union of the returned
// rectangles equals the polygon interior. It returns an error if p is not a
// valid rectilinear ring.
func (p Polygon) Rectangles() ([]Rect, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Collect distinct y coordinates (slab boundaries).
	ys := make([]int, 0, len(p))
	seen := make(map[int]bool, len(p))
	for _, v := range p {
		if !seen[v.Y] {
			seen[v.Y] = true
			ys = append(ys, v.Y)
		}
	}
	sortInts(ys)

	var out []Rect
	for i := 0; i+1 < len(ys); i++ {
		y0, y1 := ys[i], ys[i+1]
		// Find vertical edges crossing the open slab (y0, y1).
		var xs []int
		for j := range p {
			a, b := p[j], p[(j+1)%len(p)]
			if a.X != b.X {
				continue // horizontal edge
			}
			lo, hi := min(a.Y, b.Y), max(a.Y, b.Y)
			if lo <= y0 && y1 <= hi {
				xs = append(xs, a.X)
			}
		}
		sortInts(xs)
		// Even-odd fill between successive crossing x positions.
		for k := 0; k+1 < len(xs); k += 2 {
			if xs[k] < xs[k+1] {
				out = append(out, R(xs[k], y0, xs[k+1], y1))
			}
		}
	}
	return mergeVertical(out), nil
}

// mergeVertical greedily merges vertically adjacent rectangles with equal x
// extents to reduce fragment count. Input rectangles must be non-overlapping.
func mergeVertical(rs []Rect) []Rect {
	merged := true
	for merged {
		merged = false
		for i := 0; i < len(rs); i++ {
			for j := i + 1; j < len(rs); j++ {
				a, b := rs[i], rs[j]
				if a.Min.X == b.Min.X && a.Max.X == b.Max.X &&
					(a.Max.Y == b.Min.Y || b.Max.Y == a.Min.Y) {
					rs[i] = a.Union(b)
					rs = append(rs[:j], rs[j+1:]...)
					merged = true
					j--
				}
			}
		}
	}
	return rs
}

func sortInts(xs []int) {
	// Insertion sort: slab coordinate lists are tiny.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
