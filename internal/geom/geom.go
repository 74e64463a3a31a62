// Package geom provides integer rectilinear geometry primitives for VLSI
// layout processing.
//
// All coordinates are in layout database units (conventionally nanometres).
// Rectangles are half-open: a Rect contains points p with
// Min.X <= p.X < Max.X and Min.Y <= p.Y < Max.Y. This matches raster
// semantics and makes abutting rectangles tile without overlap.
package geom

import "fmt"

// Point is an integer coordinate pair in database units.
type Point struct {
	X, Y int
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y int) Point { return Point{X: x, Y: y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{X: p.X + q.X, Y: p.Y + q.Y} }

// Sub returns p translated by -q.
func (p Point) Sub(q Point) Point { return Point{X: p.X - q.X, Y: p.Y - q.Y} }

// In reports whether p lies inside r.
func (p Point) In(r Rect) bool {
	return r.Min.X <= p.X && p.X < r.Max.X && r.Min.Y <= p.Y && p.Y < r.Max.Y
}

// String returns "(x,y)".
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Rect is a half-open axis-aligned rectangle with Min.X <= Max.X and
// Min.Y <= Max.Y when canonical. The zero Rect is empty.
type Rect struct {
	Min, Max Point
}

// R is shorthand for a canonical rectangle spanning (x0,y0)-(x1,y1).
// The coordinates may be given in any order.
func R(x0, y0, x1, y1 int) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Min: Point{X: x0, Y: y0}, Max: Point{X: x1, Y: y1}}
}

// Canon returns r with Min and Max ordered canonically.
func (r Rect) Canon() Rect { return R(r.Min.X, r.Min.Y, r.Max.X, r.Max.Y) }

// Dx returns the width of r.
func (r Rect) Dx() int { return r.Max.X - r.Min.X }

// Dy returns the height of r.
func (r Rect) Dy() int { return r.Max.Y - r.Min.Y }

// Empty reports whether r contains no points.
func (r Rect) Empty() bool { return r.Min.X >= r.Max.X || r.Min.Y >= r.Max.Y }

// Area returns the area of r in square database units, 0 if empty.
func (r Rect) Area() int64 {
	if r.Empty() {
		return 0
	}
	return int64(r.Dx()) * int64(r.Dy())
}

// Center returns the integer centre point of r (rounded down).
func (r Rect) Center() Point {
	return Point{X: (r.Min.X + r.Max.X) / 2, Y: (r.Min.Y + r.Max.Y) / 2}
}

// Translate returns r moved by d.
func (r Rect) Translate(d Point) Rect {
	return Rect{Min: r.Min.Add(d), Max: r.Max.Add(d)}
}

// Expand grows r by m units on every side. Negative m shrinks; the result
// of shrinking past empty is an empty rectangle.
func (r Rect) Expand(m int) Rect {
	out := Rect{
		Min: Point{X: r.Min.X - m, Y: r.Min.Y - m},
		Max: Point{X: r.Max.X + m, Y: r.Max.Y + m},
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Intersect returns the largest rectangle contained in both r and s.
// If the rectangles do not overlap, the result is an empty Rect.
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		Min: Point{X: max(r.Min.X, s.Min.X), Y: max(r.Min.Y, s.Min.Y)},
		Max: Point{X: min(r.Max.X, s.Max.X), Y: min(r.Max.Y, s.Max.Y)},
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Union returns the smallest rectangle containing both r and s.
// An empty rectangle is the identity.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		Min: Point{X: min(r.Min.X, s.Min.X), Y: min(r.Min.Y, s.Min.Y)},
		Max: Point{X: max(r.Max.X, s.Max.X), Y: max(r.Max.Y, s.Max.Y)},
	}
}

// Overlaps reports whether r and s share at least one point.
func (r Rect) Overlaps(s Rect) bool {
	return !r.Empty() && !s.Empty() &&
		r.Min.X < s.Max.X && s.Min.X < r.Max.X &&
		r.Min.Y < s.Max.Y && s.Min.Y < r.Max.Y
}

// ContainsRect reports whether every point of s is in r.
// Every rectangle contains the empty rectangle.
func (r Rect) ContainsRect(s Rect) bool {
	if s.Empty() {
		return true
	}
	return r.Min.X <= s.Min.X && s.Max.X <= r.Max.X &&
		r.Min.Y <= s.Min.Y && s.Max.Y <= r.Max.Y
}

// String returns "[x0,y0 - x1,y1]".
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d - %d,%d]", r.Min.X, r.Min.Y, r.Max.X, r.Max.Y)
}

// DistanceSq returns the squared Euclidean distance between the closest
// points of r and s, 0 if they overlap or touch.
func (r Rect) DistanceSq(s Rect) int64 {
	dx := axisGap(r.Min.X, r.Max.X, s.Min.X, s.Max.X)
	dy := axisGap(r.Min.Y, r.Max.Y, s.Min.Y, s.Max.Y)
	return int64(dx)*int64(dx) + int64(dy)*int64(dy)
}

// axisGap returns the gap between intervals [a0,a1) and [b0,b1) on one
// axis, 0 when they overlap or touch.
func axisGap(a0, a1, b0, b1 int) int {
	switch {
	case a1 < b0:
		return b0 - a1
	case b1 < a0:
		return a0 - b1
	default:
		return 0
	}
}
