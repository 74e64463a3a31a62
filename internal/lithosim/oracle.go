package lithosim

import (
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/golitho/hsd/internal/faultinject"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/raster"
	"github.com/golitho/hsd/internal/trace"
)

// SimulateSite is the faultinject hook name fired at the start of each
// oracle simulation, for chaos-testing verification paths.
const SimulateSite = "lithosim.simulate"

// Simulate runs the full process-window check on a clip and returns the
// hotspot verdict with the defects found. The clip window must be
// non-empty; clips with no drawn shapes are trivially non-hotspots.
func (s *Simulator) Simulate(clip layout.Clip) (Result, error) {
	return s.SimulateCtx(context.Background(), clip)
}

// LabelCtx is the labeling-oracle entry point consumed by the
// active-learning data engine (internal/datengine) and the quality
// monitor's spot-checker: just the hotspot verdict, with panic
// containment. A panicking simulation — corrupt clip geometry, a bug in
// a defect check — comes back as an error, never unwinds the caller,
// so the data engine can count attempts against the sample and
// quarantine it instead of dying.
func (s *Simulator) LabelCtx(ctx context.Context, clip layout.Clip) (hotspot bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			hotspot = false
			err = fmt.Errorf("lithosim: oracle panic: %v", r)
		}
	}()
	res, err := s.SimulateCtx(ctx, clip)
	if err != nil {
		return false, err
	}
	return res.Hotspot, nil
}

// Label is LabelCtx without cancellation, matching the qualitymon
// Oracle signature.
func (s *Simulator) Label(clip layout.Clip) (bool, error) {
	return s.LabelCtx(context.Background(), clip)
}

// SimulateCtx is the context-aware Simulate: cancellation and deadline
// are checked at unit-of-work boundaries (one blur, or one corner's
// threshold and three geometric checks), so a cancelled verification
// stops within one unit's latency. An interrupted simulation returns the
// wrapped context error and flags its span; partial defect lists are
// never returned.
func (s *Simulator) SimulateCtx(ctx context.Context, clip layout.Clip) (Result, error) {
	if clip.Window.Empty() {
		return Result{}, fmt.Errorf("lithosim: empty clip window")
	}
	if len(clip.Shapes) == 0 {
		return Result{}, nil
	}
	if err := faultinject.Hit(SimulateSite); err != nil {
		return Result{}, fmt.Errorf("lithosim: %w", err)
	}
	// Only clips that reach the optical model count toward measured ODST;
	// validation failures and trivially empty clips cost nothing.
	start := time.Now()
	sctx, ssp := trace.Start(ctx, "lithosim.simulate")
	ssp.SetAttrInt("corners", len(s.cfg.Corners))
	defer ssp.End()
	defer func() {
		s.simCount.Add(1)
		s.simNanos.Add(int64(time.Since(start)))
	}()
	sc := s.getScratch()
	_, rsp := trace.Start(sctx, "raster")
	rsp.SetAttr("stage", "mask")
	err := raster.RasterizeInto(&sc.mask, raster.Config{Window: clip.Window, PixelNM: s.cfg.PixelNM}, clip.Shapes)
	rsp.SetError(err)
	rsp.End()
	if err != nil {
		return Result{}, fmt.Errorf("lithosim: rasterize clip: %w", err)
	}
	sc.fit(s, sc.mask.W, sc.mask.H)
	res, err := s.simulateCorners(sctx, clip, sc)
	s.scratch.Put(sc)
	ssp.SetError(err)
	return res, err
}

// pxRect converts a layout-space rect to pixel space relative to the window.
func (s *Simulator) pxRect(window, r geom.Rect) geom.Rect {
	p := s.cfg.PixelNM
	return geom.R(
		(r.Min.X-window.Min.X)/p, (r.Min.Y-window.Min.Y)/p,
		(r.Max.X-window.Min.X+p-1)/p, (r.Max.Y-window.Min.Y+p-1)/p,
	)
}

// checkCorner runs bridge, neck/open, and EPE checks on corner i's printed
// mask and appends what they find to defects.
func (s *Simulator) checkCorner(defects []Defect, clip layout.Clip, sc *scratch, i int) []Defect {
	corner, printed := s.cfg.Corners[i].Name, &sc.printed[i]
	corePx := s.pxRect(clip.Window, clip.Core.Intersect(clip.Window))

	defects = s.checkBridges(defects, clip, sc, printed, corePx, corner)
	defects = s.checkWidths(defects, clip, printed, corner)
	return s.checkEPE(defects, clip, &sc.target, printed, corePx, corner)
}

// bridgeReachNM is how close a stray printed pixel must be to each of two
// drawn nets to count as bridge material between them. It must exceed half
// the widest bridgeable gap (~96 nm at this sigma) and stay below the
// minimum safe drawn spacing.
const bridgeReachNM = 48

// checkBridges flags printed material in the core that lies in the gap
// between two electrically distinct drawn nets: resist connecting
// drawn-apart geometry is a short-circuit risk.
//
// Nets are the connected groups of drawn shapes (touching or overlapping
// rectangles belong to one net, e.g. the arms of a decomposed polygon).
// A printed pixel outside every (dilated) drawn shape that sits within
// bridgeReachNM of two different nets is bridge evidence.
func (s *Simulator) checkBridges(defects []Defect, clip layout.Clip, sc *scratch, printed *raster.Mask, corePx geom.Rect, corner string) []Defect {
	if len(clip.Shapes) < 2 {
		return defects
	}
	sc.pairs = sc.pairs[:0] // unordered net pairs already reported, smaller first
	for y := max(corePx.Min.Y, 0); y < min(corePx.Max.Y, printed.H); y++ {
		for x := max(corePx.Min.X, 0); x < min(corePx.Max.X, printed.W); x++ {
			i := y*printed.W + x
			if printed.Pix[i] == 0 || sc.inShape.Pix[i] != 0 {
				continue
			}
			at := s.toLayoutPt(clip.Window, x, y)
			// Nets within reach of this stray pixel.
			sc.near = sc.near[:0]
			for si, r := range clip.Shapes {
				if pointRectDistSq(at, r) <= bridgeReachNM*bridgeReachNM && !slices.Contains(sc.near, sc.nets[si]) {
					sc.near = append(sc.near, sc.nets[si])
				}
			}
			for a := 0; a < len(sc.near); a++ {
				for b := a + 1; b < len(sc.near); b++ {
					key := [2]int{min(sc.near[a], sc.near[b]), max(sc.near[a], sc.near[b])}
					if !slices.Contains(sc.pairs, key) {
						sc.pairs = append(sc.pairs, key)
						defects = append(defects, Defect{Type: DefectBridge, Corner: corner, At: at})
					}
				}
			}
		}
	}
	return defects
}

// drawn fills what the bridge check needs of the drawn pattern, which is
// the same at every corner: each shape's net, and the mask of pixels
// inside any drawn shape dilated by one pixel.
func (sc *scratch) drawn(s *Simulator, clip layout.Clip) {
	if len(clip.Shapes) < 2 {
		return
	}
	sc.nets = drawnNets(sc.nets[:0], clip.Shapes)
	clear(sc.inShape.Pix)
	for _, r := range clip.Shapes {
		pr := s.pxRect(clip.Window, r).Expand(1)
		for y := max(pr.Min.Y, 0); y < min(pr.Max.Y, sc.h); y++ {
			for x := max(pr.Min.X, 0); x < min(pr.Max.X, sc.w); x++ {
				sc.inShape.Pix[y*sc.w+x] = 1
			}
		}
	}
}

// drawnNets appends a net id for every shape to nets: shapes that touch
// or overlap share a net. The ids are union-find roots, shape indices.
func drawnNets(nets []int, shapes []geom.Rect) []int {
	for i := range shapes {
		nets = append(nets, i)
	}
	// nets is the parent array until the last loop flattens it.
	find := func(i int) int {
		for nets[i] != i {
			nets[i] = nets[nets[i]]
			i = nets[i]
		}
		return i
	}
	for i := 0; i < len(shapes); i++ {
		for j := i + 1; j < len(shapes); j++ {
			if shapes[i].DistanceSq(shapes[j]) == 0 {
				ri, rj := find(i), find(j)
				if ri != rj {
					nets[ri] = rj
				}
			}
		}
	}
	for i := range shapes {
		nets[i] = find(i)
	}
	return nets
}

// pointRectDistSq is the squared distance from point p to rectangle r.
func pointRectDistSq(p geom.Point, r geom.Rect) int64 {
	dx, dy := 0, 0
	switch {
	case p.X < r.Min.X:
		dx = r.Min.X - p.X
	case p.X >= r.Max.X:
		dx = p.X - r.Max.X + 1
	}
	switch {
	case p.Y < r.Min.Y:
		dy = r.Min.Y - p.Y
	case p.Y >= r.Max.Y:
		dy = p.Y - r.Max.Y + 1
	}
	return int64(dx)*int64(dx) + int64(dy)*int64(dy)
}

// checkWidths flags necking (printed width below NeckFrac of drawn) and
// opens (feature fails to print) at sampled cross-sections inside the core.
func (s *Simulator) checkWidths(defects []Defect, clip layout.Clip, printed *raster.Mask, corner string) []Defect {
	for _, r := range clip.Shapes {
		drawnW := min(r.Dx(), r.Dy())
		if drawnW < s.cfg.MinCheckWidthNM {
			continue
		}
		region := r.Intersect(clip.Core)
		if region.Empty() {
			continue
		}
		pr := s.pxRect(clip.Window, region).Intersect(geom.R(0, 0, printed.W, printed.H))
		if pr.Empty() {
			continue
		}
		horizontal := r.Dx() >= r.Dy() // long axis is x
		openHere := true
		neckAt := geom.Point{}
		neck := false
		for _, frac := range [3]float64{0.25, 0.5, 0.75} {
			var cx, cy int
			if horizontal {
				cx = pr.Min.X + int(frac*float64(pr.Dx()-1))
				cy = (pr.Min.Y + pr.Max.Y - 1) / 2
			} else {
				cy = pr.Min.Y + int(frac*float64(pr.Dy()-1))
				cx = (pr.Min.X + pr.Max.X - 1) / 2
			}
			w := runWidth(printed, cx, cy, !horizontal)
			if w > 0 {
				openHere = false
			}
			printedNM := float64(w * s.cfg.PixelNM)
			if w > 0 && printedNM < s.cfg.NeckFrac*float64(drawnW) {
				neck = true
				neckAt = s.toLayoutPt(clip.Window, cx, cy)
			}
		}
		switch {
		case openHere:
			defects = append(defects, Defect{
				Type: DefectOpen, Corner: corner,
				At: region.Center(),
			})
		case neck:
			defects = append(defects, Defect{Type: DefectNeck, Corner: corner, At: neckAt})
		}
	}
	return defects
}

// runWidth measures the contiguous printed run through (x, y) along the
// given axis (vertical=true measures along y). Returns 0 when (x, y) is
// not printed.
func runWidth(m *raster.Mask, x, y int, vertical bool) int {
	if m.At(x, y) == 0 {
		return 0
	}
	n := 1
	if vertical {
		for d := 1; m.At(x, y-d) != 0; d++ {
			n++
		}
		for d := 1; m.At(x, y+d) != 0; d++ {
			n++
		}
	} else {
		for d := 1; m.At(x-d, y) != 0; d++ {
			n++
		}
		for d := 1; m.At(x+d, y) != 0; d++ {
			n++
		}
	}
	return n
}

// checkEPE samples drawn edges inside the core and flags edge-placement
// deviations beyond EPETolNM. Catches line-end pullback and corner
// rounding that the width checks miss.
func (s *Simulator) checkEPE(defects []Defect, clip layout.Clip, target, printed *raster.Mask, corePx geom.Rect, corner string) []Defect {
	tolPx := float64(s.cfg.EPETolNM) / float64(s.cfg.PixelNM)
	maxT := int(2*tolPx) + 2
	p := s.cfg.PixelNM
	for ri, r := range clip.Shapes {
		if min(r.Dx(), r.Dy()) < s.cfg.MinCheckWidthNM {
			continue
		}
		pr := s.pxRect(clip.Window, r)
		// Edge descriptors: position of the boundary pixel line just inside
		// the shape, plus the outward step direction.
		type edge struct {
			x0, y0, x1, y1 int // inclusive pixel span just inside the edge
			dx, dy         int // outward normal step
		}
		edges := [4]edge{
			{pr.Min.X, pr.Min.Y, pr.Min.X, pr.Max.Y - 1, -1, 0},        // left
			{pr.Max.X - 1, pr.Min.Y, pr.Max.X - 1, pr.Max.Y - 1, 1, 0}, // right
			{pr.Min.X, pr.Min.Y, pr.Max.X - 1, pr.Min.Y, 0, -1},        // bottom
			{pr.Min.X, pr.Max.Y - 1, pr.Max.X - 1, pr.Max.Y - 1, 0, 1}, // top
		}
		for _, e := range edges {
			stepX, stepY := 0, 1
			n := e.y1 - e.y0 + 1
			if e.dy != 0 { // horizontal edge: walk x
				stepX, stepY = 1, 0
				n = e.x1 - e.x0 + 1
			}
			// Sample every 3 px along the edge, staying >= 3 px away from
			// the edge endpoints: corner rounding is expected behaviour,
			// not an EPE violation. Short edges (line tips) are sampled at
			// their centre only, which measures line-end pullback.
			first, last := 3, n-4
			if first > last {
				first, last = n/2, n/2
			}
			for k := first; k <= last; k += 3 {
				x := e.x0 + k*stepX
				y := e.y0 + k*stepY
				if !geom.Pt(x, y).In(corePx) {
					continue
				}
				// Skip samples whose outward neighbour is itself drawn:
				// the "edge" is interior to a decomposed polygon or an
				// abutting shape, not a printable boundary.
				if target.At(x+e.dx, y+e.dy) != 0 {
					continue
				}
				dev, found := edgeDeviation(printed, x, y, e.dx, e.dy, maxT)
				if found && float64(dev)*float64(p) <= float64(s.cfg.EPETolNM) {
					continue
				}
				// Suppress samples dominated by proximity to another
				// drawn shape (junction fill, tight-space interaction):
				// the bridge and width checks own those regions.
				at := s.toLayoutPt(clip.Window, x, y)
				nearOther := false
				for si, o := range clip.Shapes {
					if si != ri && pointRectDistSq(at, o) <= bridgeReachNM*bridgeReachNM {
						nearOther = true
						break
					}
				}
				if nearOther {
					continue
				}
				defects = append(defects, Defect{Type: DefectEPE, Corner: corner, At: at})
				break // one report per edge is enough
			}
		}
	}
	return defects
}

// edgeDeviation walks from the in-shape boundary pixel (x, y) along the
// outward normal (dx, dy) and inward, locating the printed edge. It returns
// the absolute deviation in pixels and whether an edge was found within
// maxT steps.
func edgeDeviation(m *raster.Mask, x, y, dx, dy, maxT int) (int, bool) {
	inside := m.At(x, y) != 0
	if inside {
		// Walk outward until the print stops.
		for t := 1; t <= maxT; t++ {
			if m.At(x+t*dx, y+t*dy) == 0 {
				return t - 1, true
			}
		}
		return maxT, false // printed far beyond drawn edge
	}
	// Boundary pixel not printed: walk inward until print starts.
	for t := 1; t <= maxT; t++ {
		if m.At(x-t*dx, y-t*dy) != 0 {
			return t, true
		}
	}
	return maxT, false // nothing printed near the edge
}

func (s *Simulator) toLayoutPt(window geom.Rect, px, py int) geom.Point {
	return geom.Pt(
		window.Min.X+px*s.cfg.PixelNM+s.cfg.PixelNM/2,
		window.Min.Y+py*s.cfg.PixelNM+s.cfg.PixelNM/2,
	)
}
