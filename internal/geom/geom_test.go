package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectCanonical(t *testing.T) {
	r := R(10, 20, 0, 5)
	if r.Min != Pt(0, 5) || r.Max != Pt(10, 20) {
		t.Fatalf("R did not canonicalize: %v", r)
	}
	if got := r.Canon(); got != r {
		t.Fatalf("Canon changed canonical rect: %v", got)
	}
}

func TestRectDims(t *testing.T) {
	r := R(2, 3, 12, 8)
	if r.Dx() != 10 || r.Dy() != 5 {
		t.Fatalf("Dx/Dy = %d/%d, want 10/5", r.Dx(), r.Dy())
	}
	if r.Area() != 50 {
		t.Fatalf("Area = %d, want 50", r.Area())
	}
	if r.Center() != Pt(7, 5) {
		t.Fatalf("Center = %v, want (7,5)", r.Center())
	}
}

func TestRectEmpty(t *testing.T) {
	cases := []struct {
		r    Rect
		want bool
	}{
		{Rect{}, true},
		{R(0, 0, 0, 10), true},
		{R(0, 0, 10, 0), true},
		{R(0, 0, 1, 1), false},
		{Rect{Min: Pt(5, 5), Max: Pt(5, 5)}, true},
	}
	for _, c := range cases {
		if got := c.r.Empty(); got != c.want {
			t.Errorf("%v.Empty() = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestRectIntersect(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 15, 15)
	if got := a.Intersect(b); got != R(5, 5, 10, 10) {
		t.Fatalf("Intersect = %v", got)
	}
	c := R(20, 20, 30, 30)
	if got := a.Intersect(c); !got.Empty() {
		t.Fatalf("disjoint Intersect = %v, want empty", got)
	}
	// Touching edges do not intersect (half-open).
	d := R(10, 0, 20, 10)
	if got := a.Intersect(d); !got.Empty() {
		t.Fatalf("touching Intersect = %v, want empty", got)
	}
}

func TestRectUnionIdentity(t *testing.T) {
	a := R(1, 2, 3, 4)
	if got := a.Union(Rect{}); got != a {
		t.Fatalf("Union with empty = %v, want %v", got, a)
	}
	if got := (Rect{}).Union(a); got != a {
		t.Fatalf("empty Union a = %v, want %v", got, a)
	}
}

func TestRectOverlapsContains(t *testing.T) {
	a := R(0, 0, 10, 10)
	if !a.Overlaps(R(9, 9, 20, 20)) {
		t.Error("expected overlap")
	}
	if a.Overlaps(R(10, 0, 20, 10)) {
		t.Error("touching rects must not overlap (half-open)")
	}
	if !a.ContainsRect(R(2, 2, 8, 8)) {
		t.Error("expected containment")
	}
	if a.ContainsRect(R(2, 2, 11, 8)) {
		t.Error("unexpected containment")
	}
	if !a.ContainsRect(Rect{}) {
		t.Error("every rect contains the empty rect")
	}
}

func TestRectExpand(t *testing.T) {
	a := R(5, 5, 10, 10)
	if got := a.Expand(2); got != R(3, 3, 12, 12) {
		t.Fatalf("Expand(2) = %v", got)
	}
	if got := a.Expand(-3); !got.Empty() {
		t.Fatalf("over-shrink should be empty, got %v", got)
	}
}

func TestRectDistance(t *testing.T) {
	a := R(0, 0, 10, 10)
	cases := []struct {
		b    Rect
		want int64
	}{
		{R(5, 5, 6, 6), 0},          // inside
		{R(10, 0, 20, 10), 0},       // touching
		{R(13, 0, 20, 10), 9},       // 3 apart in x
		{R(13, 14, 20, 20), 9 + 16}, // 3 in x, 4 in y
		{R(0, 30, 10, 40), 400},     // 20 in y
	}
	for _, c := range cases {
		if got := a.DistanceSq(c.b); got != c.want {
			t.Errorf("DistanceSq(%v) = %d, want %d", c.b, got, c.want)
		}
	}
}

func TestPointInRect(t *testing.T) {
	r := R(0, 0, 10, 10)
	if !Pt(0, 0).In(r) {
		t.Error("Min corner must be inside (half-open)")
	}
	if Pt(10, 10).In(r) {
		t.Error("Max corner must be outside (half-open)")
	}
	if Pt(5, 10).In(r) || Pt(10, 5).In(r) {
		t.Error("Max edges must be outside")
	}
}

func randRect(rng *rand.Rand) Rect {
	return R(rng.Intn(200)-100, rng.Intn(200)-100, rng.Intn(200)-100, rng.Intn(200)-100)
}

func TestQuickIntersectCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		a, b := randRect(rng), randRect(rng)
		return a.Intersect(b) == b.Intersect(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectContained(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		a, b := randRect(rng), randRect(rng)
		i := a.Intersect(b)
		return a.ContainsRect(i) && b.ContainsRect(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionContains(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		a, b := randRect(rng), randRect(rng)
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAreaInclusionExclusionBound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func() bool {
		a, b := randRect(rng), randRect(rng)
		// |A ∪ B| >= |A| + |B| - |A ∩ B| holds with equality for the true
		// union; the bounding-box Union can only be larger.
		return a.Union(b).Area() >= a.Area()+b.Area()-a.Intersect(b).Area()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistanceSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		a, b := randRect(rng), randRect(rng)
		if a.Empty() || b.Empty() {
			return true
		}
		if a.DistanceSq(b) != b.DistanceSq(a) {
			return false
		}
		if a.Overlaps(b) && a.DistanceSq(b) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPolygonValidate(t *testing.T) {
	good := Polygon{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid polygon rejected: %v", err)
	}
	diag := Polygon{Pt(0, 0), Pt(10, 10), Pt(0, 10), Pt(0, 5)}
	if err := diag.Validate(); err == nil {
		t.Fatal("diagonal edge accepted")
	}
	short := Polygon{Pt(0, 0), Pt(10, 0), Pt(10, 10)}
	if err := short.Validate(); err == nil {
		t.Fatal("triangle accepted as rectilinear polygon")
	}
}

func TestPolygonAreaRect(t *testing.T) {
	p := Polygon{Pt(0, 0), Pt(10, 0), Pt(10, 20), Pt(0, 20)}
	if p.Area() != 200 {
		t.Fatalf("Area = %d, want 200", p.Area())
	}
	if p.Bounds() != R(0, 0, 10, 20) {
		t.Fatalf("Bounds = %v", p.Bounds())
	}
}

func TestPolygonLShapeDecomposition(t *testing.T) {
	// L shape: 20x20 square minus 10x10 top-right quadrant.
	l := Polygon{Pt(0, 0), Pt(20, 0), Pt(20, 10), Pt(10, 10), Pt(10, 20), Pt(0, 20)}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.Area() != 300 {
		t.Fatalf("L area = %d, want 300", l.Area())
	}
	rects, err := l.Rectangles()
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for i, r := range rects {
		sum += r.Area()
		for j := i + 1; j < len(rects); j++ {
			if r.Overlaps(rects[j]) {
				t.Fatalf("decomposition rects overlap: %v and %v", r, rects[j])
			}
		}
	}
	if sum != 300 {
		t.Fatalf("decomposed area = %d, want 300", sum)
	}
}

func TestPolygonUShapeDecomposition(t *testing.T) {
	// U shape: 30x20 with a 10x10 notch cut from the top middle.
	u := Polygon{
		Pt(0, 0), Pt(30, 0), Pt(30, 20), Pt(20, 20),
		Pt(20, 10), Pt(10, 10), Pt(10, 20), Pt(0, 20),
	}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	want := int64(30*20 - 10*10)
	if u.Area() != want {
		t.Fatalf("U area = %d, want %d", u.Area(), want)
	}
	rects, err := u.Rectangles()
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, r := range rects {
		sum += r.Area()
	}
	if sum != want {
		t.Fatalf("decomposed area = %d, want %d", sum, want)
	}
}

func TestPolygonTranslate(t *testing.T) {
	p := Polygon{Pt(0, 0), Pt(5, 0), Pt(5, 5), Pt(0, 5)}.Translate(Pt(10, -3))
	if p.Bounds() != R(10, -3, 15, 2) {
		t.Fatalf("translated bounds = %v", p.Bounds())
	}
	if p.Area() != 25 {
		t.Fatalf("translate changed area: %d", p.Area())
	}
}

func TestQuickPolygonRectRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func() bool {
		r := randRect(rng)
		if r.Empty() {
			return true
		}
		p := Polygon{r.Min, Pt(r.Max.X, r.Min.Y), r.Max, Pt(r.Min.X, r.Max.Y)}
		if p.Area() != r.Area() {
			return false
		}
		rects, err := p.Rectangles()
		if err != nil || len(rects) != 1 {
			return false
		}
		return rects[0] == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
