package features

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"github.com/golitho/hsd/internal/fft"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/raster"
)

// testClip builds a 1024 nm clip centred at (512,512) over the shapes.
func testClip(t *testing.T, shapes ...geom.Rect) layout.Clip {
	t.Helper()
	return sizedClip(t, 1024, shapes...)
}

// sizedClip builds a size nm clip with its window at the origin over
// the shapes: at the one pitch, another size is another image size.
func sizedClip(t *testing.T, size int, shapes ...geom.Rect) layout.Clip {
	t.Helper()
	l := layout.New("t")
	for _, s := range shapes {
		if err := l.AddRect(s); err != nil {
			t.Fatal(err)
		}
	}
	clip, err := l.ClipAt(geom.Pt(size/2, size/2), size, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return clip
}

func randomClip(t *testing.T, rng *rand.Rand) layout.Clip {
	t.Helper()
	var shapes []geom.Rect
	n := 1 + rng.Intn(12)
	for i := 0; i < n; i++ {
		x, y := rng.Intn(960), rng.Intn(960)
		w, h := 16+rng.Intn(200), 16+rng.Intn(200)
		shapes = append(shapes, geom.R(x, y, x+w, y+h))
	}
	return testClip(t, shapes...)
}

func TestDensityUniform(t *testing.T) {
	clip := testClip(t, geom.R(0, 0, 1024, 1024))
	d := &Density{Grid: 16}
	v, err := d.Extract(clip)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != d.Dim() || d.Dim() != 256 {
		t.Fatalf("dim = %d", len(v))
	}
	for i, x := range v {
		if math.Abs(x-1) > 1e-12 {
			t.Fatalf("cell %d = %v, want 1", i, x)
		}
	}
}

func TestDensityHalf(t *testing.T) {
	clip := testClip(t, geom.R(0, 0, 512, 1024)) // left half covered
	d := &Density{Grid: 2}
	v, err := d.Extract(clip)
	if err != nil {
		t.Fatal(err)
	}
	// Cells: [y0x0, y0x1, y1x0, y1x1]
	if math.Abs(v[0]-1) > 1e-9 || math.Abs(v[2]-1) > 1e-9 {
		t.Fatalf("left cells = %v, %v, want 1", v[0], v[2])
	}
	if v[1] != 0 || v[3] != 0 {
		t.Fatalf("right cells = %v, %v, want 0", v[1], v[3])
	}
}

func TestDensityValidation(t *testing.T) {
	clip := testClip(t, geom.R(0, 0, 64, 64))
	if _, err := (&Density{Grid: 0}).Extract(clip); err == nil {
		t.Fatal("zero grid accepted")
	}
	if _, err := (&Density{Grid: 7}).Extract(clip); err == nil {
		t.Fatal("non-divisible grid accepted")
	}
}

func TestDensityRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := &Density{Grid: 8}
	f := func() bool {
		v, err := d.Extract(randomClip(t, rng))
		if err != nil {
			return false
		}
		for _, x := range v {
			if x < 0 || x > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCCASDims(t *testing.T) {
	c := &CCAS{Rings: 8, Sectors: 16}
	clip := testClip(t, geom.R(0, 0, 1024, 1024))
	v, err := c.Extract(clip)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 128 {
		t.Fatalf("dim = %d, want 128", len(v))
	}
	for i, x := range v {
		if math.Abs(x-1) > 1e-12 {
			t.Fatalf("full clip ccas[%d] = %v, want 1", i, x)
		}
	}
}

func TestCCASCenterRing(t *testing.T) {
	// A blob only at the centre: inner ring sees coverage, outer does not.
	clip := testClip(t, geom.R(480, 480, 544, 544))
	c := &CCAS{Rings: 4, Sectors: 4}
	v, err := c.Extract(clip)
	if err != nil {
		t.Fatal(err)
	}
	var inner, outer float64
	for s := 0; s < 4; s++ {
		inner += v[s]
		outer += v[3*4+s]
	}
	if inner <= 0 {
		t.Fatal("inner ring saw nothing")
	}
	if outer != 0 {
		t.Fatalf("outer ring = %v, want 0", outer)
	}
}

func TestCCASRotationTolerance(t *testing.T) {
	// CCAS ring sums should be invariant under 90-degree rotation.
	clip := testClip(t, geom.R(100, 460, 400, 560), geom.R(600, 200, 700, 820))
	// Rotate counter-clockwise about the window centre, in doubled
	// coordinates so the centre is on the grid.
	cx2, cy2 := clip.Window.Min.X+clip.Window.Max.X, clip.Window.Min.Y+clip.Window.Max.Y
	rot := layout.Clip{Window: clip.Window}
	for _, r := range clip.Shapes {
		rot.Shapes = append(rot.Shapes, geom.R((cx2+cy2-2*r.Min.Y)/2, (cy2-cx2+2*r.Min.X)/2,
			(cx2+cy2-2*r.Max.Y)/2, (cy2-cx2+2*r.Max.X)/2))
	}
	c := &CCAS{Rings: 6, Sectors: 8}
	a, err := c.Extract(clip)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Extract(rot)
	if err != nil {
		t.Fatal(err)
	}
	for ring := 0; ring < 6; ring++ {
		var sa, sb float64
		for s := 0; s < 8; s++ {
			sa += a[ring*8+s]
			sb += b[ring*8+s]
		}
		if math.Abs(sa-sb) > 1e-6 {
			t.Fatalf("ring %d sum changed under rotation: %v vs %v", ring, sa, sb)
		}
	}
}

func TestCCASValidation(t *testing.T) {
	clip := testClip(t, geom.R(0, 0, 64, 64))
	if _, err := (&CCAS{Rings: 0, Sectors: 4}).Extract(clip); err == nil {
		t.Fatal("zero rings accepted")
	}
}

func TestDCTDims(t *testing.T) {
	d := &DCT{Blocks: 8, Coefs: 24}
	if d.Dim() != 8*8*24 {
		t.Fatalf("Dim = %d", d.Dim())
	}
	c, h, w := d.TensorShape()
	if c != 24 || h != 8 || w != 8 {
		t.Fatalf("TensorShape = %d,%d,%d", c, h, w)
	}
	clip := testClip(t, geom.R(0, 448, 1024, 576))
	v, err := d.Extract(clip)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != d.Dim() {
		t.Fatalf("len = %d", len(v))
	}
}

func TestDCTDCChannelIsDensity(t *testing.T) {
	// Coefficient 0 of each block is the scaled block mean, so the DC
	// channel must be proportional to the density grid.
	clip := testClip(t, geom.R(0, 0, 512, 1024))
	d := &DCT{Blocks: 8, Coefs: 4}
	v, err := d.Extract(clip)
	if err != nil {
		t.Fatal(err)
	}
	den, err := (&Density{Grid: 8}).Extract(clip)
	if err != nil {
		t.Fatal(err)
	}
	// DC term of an orthonormal DCT over an n x n block of constant c is
	// n * c; block size is 16 px here.
	for i := 0; i < 64; i++ {
		want := 16 * den[i]
		if math.Abs(v[i]-want) > 1e-9 {
			t.Fatalf("DC channel[%d] = %v, want %v", i, v[i], want)
		}
	}
}

func TestDCTEnergyConservation(t *testing.T) {
	// With all coefficients kept, total energy equals image energy
	// (orthonormal DCT, Parseval).
	clip := sizedClip(t, 512, geom.R(64, 64, 448, 448))
	d := &DCT{Blocks: 8, Coefs: 256} // 64 px image, 8 px blocks
	v, err := d.Extract(clip)
	if err == nil {
		var e float64
		for _, x := range v {
			e += x * x
		}
		// 384x384 nm at 8 nm/px = 48x48 px of ones = 2304.
		if math.Abs(e-2304) > 1e-6 {
			t.Fatalf("energy = %v, want 2304", e)
		}
		return
	}
	// 64/8 blocks of 8x8 = max 64 coefs; 256 must error.
	d2 := &DCT{Blocks: 8, Coefs: 64}
	v, err = d2.Extract(clip)
	if err != nil {
		t.Fatal(err)
	}
	var e float64
	for _, x := range v {
		e += x * x
	}
	if math.Abs(e-2304) > 1e-6 {
		t.Fatalf("energy = %v, want 2304", e)
	}
}

func TestDCTValidation(t *testing.T) {
	clip := testClip(t, geom.R(0, 0, 64, 64))
	if _, err := (&DCT{Blocks: 0, Coefs: 1}).Extract(clip); err == nil {
		t.Fatal("zero blocks accepted")
	}
	if _, err := (&DCT{Blocks: 7, Coefs: 4}).Extract(clip); err == nil {
		t.Fatal("non-divisible blocks accepted")
	}
	if _, err := (&DCT{Blocks: 64, Coefs: 9}).Extract(clip); err == nil {
		t.Fatal("too many coefs accepted")
	}
}

func TestMirrorClipInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		clip := randomClip(t, rng)
		mx := MirrorClipX(MirrorClipX(clip))
		my := MirrorClipY(MirrorClipY(clip))
		for j := range clip.Shapes {
			if clip.Shapes[j] != mx.Shapes[j] {
				t.Fatal("MirrorClipX not an involution")
			}
			if clip.Shapes[j] != my.Shapes[j] {
				t.Fatal("MirrorClipY not an involution")
			}
		}
	}
}

func TestMirrorClipMatchesImageMirror(t *testing.T) {
	clip := testClip(t, geom.R(64, 128, 320, 256), geom.R(512, 640, 900, 720))
	d := &Density{Grid: 8}
	orig, err := d.Extract(clip)
	if err != nil {
		t.Fatal(err)
	}
	mir, err := d.Extract(MirrorClipX(clip))
	if err != nil {
		t.Fatal(err)
	}
	for gy := 0; gy < 8; gy++ {
		for gx := 0; gx < 8; gx++ {
			if math.Abs(orig[gy*8+gx]-mir[gy*8+7-gx]) > 1e-9 {
				t.Fatalf("mirror mismatch at (%d,%d)", gx, gy)
			}
		}
	}
}

func TestConcat(t *testing.T) {
	clip := testClip(t, geom.R(0, 0, 512, 1024))
	c := NewConcat(&Density{Grid: 4}, &CCAS{Rings: 2, Sectors: 4})
	if c.Dim() != 16+8 {
		t.Fatalf("Dim = %d", c.Dim())
	}
	if c.Name() != "density4+ccas2x4" {
		t.Fatalf("Name = %q", c.Name())
	}
	v, err := c.Extract(clip)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 24 {
		t.Fatalf("len = %d", len(v))
	}
	d, err := (&Density{Grid: 4}).Extract(clip)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d {
		if v[i] != d[i] {
			t.Fatal("concat head differs from density features")
		}
	}
	empty := NewConcat()
	if _, err := empty.Extract(clip); err == nil {
		t.Fatal("empty concat accepted")
	}
}

func TestGeomStatsDim(t *testing.T) {
	g := &GeomStats{}
	clip := testClip(t, geom.R(0, 448, 1024, 520), geom.R(0, 560, 1024, 632))
	v, err := g.Extract(clip)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != g.Dim() {
		t.Fatalf("len = %d, want %d", len(v), g.Dim())
	}
}

func TestGeomStatsGapSensitivity(t *testing.T) {
	g := &GeomStats{}
	// Two lines with a 40 nm gap vs a 120 nm gap: the gap histograms must
	// differ and the tight pair must populate a low bucket.
	tight := testClip(t, geom.R(0, 448, 1024, 520), geom.R(0, 560, 1024, 632)) // 40 nm
	loose := testClip(t, geom.R(0, 400, 1024, 472), geom.R(0, 592, 1024, 664)) // 120 nm
	vt, err := g.Extract(tight)
	if err != nil {
		t.Fatal(err)
	}
	vl, err := g.Extract(loose)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range vt {
		if vt[i] != vl[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("geomstats cannot distinguish tight and loose spacing")
	}
	// Min core gap scalar: tight < loose.
	minGapIdx := g.Dim() - 2
	if vt[minGapIdx] >= vl[minGapIdx] {
		t.Fatalf("min core gap not ordered: %v vs %v", vt[minGapIdx], vl[minGapIdx])
	}
}

func TestGeomStatsEmptyClip(t *testing.T) {
	g := &GeomStats{}
	clip := layout.Clip{Window: geom.R(0, 0, 1024, 1024), Core: geom.R(256, 256, 768, 768)}
	v, err := g.Extract(clip)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != g.Dim() {
		t.Fatalf("len = %d", len(v))
	}
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("feature %d = %v on empty clip", i, x)
		}
	}
}

func TestGeomStatsWidthSensitivity(t *testing.T) {
	g := &GeomStats{}
	narrow := testClip(t, geom.R(0, 488, 1024, 536)) // 48 nm line
	wide := testClip(t, geom.R(0, 464, 1024, 560))   // 96 nm line
	vn, err := g.Extract(narrow)
	if err != nil {
		t.Fatal(err)
	}
	vw, err := g.Extract(wide)
	if err != nil {
		t.Fatal(err)
	}
	// Width histogram bucket 1 is [40,48) and bucket 2 is [48,56): the
	// narrow line must fill an early bucket the wide one does not.
	if vn[2] <= vw[2] {
		t.Fatalf("width histogram insensitive: narrow[2]=%v wide[2]=%v", vn[2], vw[2])
	}
}

// blockCopyDCT is the extractor's pre-plan pipeline, kept as the
// reference: rasterize afresh, copy each block out, transform it whole
// with fft.DCT2D, keep the zigzag prefix.
func blockCopyDCT(t *testing.T, d *DCT, clip layout.Clip) []float64 {
	t.Helper()
	im, err := raster.Rasterize(raster.Config{Window: clip.Window, PixelNM: pixelNM}, clip.Shapes)
	if err != nil {
		t.Fatal(err)
	}
	bs := im.W / d.Blocks
	zig := fft.Zigzag(bs)
	block := make([]float64, bs*bs)
	out := make([]float64, d.Dim())
	for by := 0; by < d.Blocks; by++ {
		for bx := 0; bx < d.Blocks; bx++ {
			for y := 0; y < bs; y++ {
				srcRow := (by*bs + y) * im.W
				copy(block[y*bs:(y+1)*bs], im.Pix[srcRow+bx*bs:srcRow+(bx+1)*bs])
			}
			coef, err := fft.DCT2D(block, bs)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < d.Coefs; k++ {
				out[(k*d.Blocks+by)*d.Blocks+bx] = coef[zig[k]]
			}
		}
	}
	return out
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: feature %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestPitchKeepsCoverageExact pins pixelNM: it divides the zoo's 1024 nm
// clip into whole pixels, and a pixel's area is a power of two, so each
// coverage fraction and each sum of them is exact. Three shapes abutting
// inside one pixel then give the pixel's bits in every order.
func TestPitchKeepsCoverageExact(t *testing.T) {
	if 1024%pixelNM != 0 {
		t.Fatalf("pitch %d nm does not divide a 1024 nm clip", pixelNM)
	}
	if area := pixelNM * pixelNM; area&(area-1) != 0 {
		t.Fatalf("pitch %d nm has a pixel area of %d nm², not a power of two", pixelNM, area)
	}
	abut := []geom.Rect{geom.R(0, 1, 2, 7), geom.R(2, 1, 5, 7), geom.R(5, 1, 6, 7)}
	var want uint64
	for i, order := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		shapes := []geom.Rect{abut[order[0]], abut[order[1]], abut[order[2]]}
		im, err := raster.Rasterize(raster.Config{Window: geom.R(0, 0, pixelNM, pixelNM), PixelNM: pixelNM}, shapes)
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(im.Pix[0]); i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("order %v rasterizes to %v, order %v to %v", order, im.Pix[0], [3]int{0, 1, 2}, math.Float64frombits(want))
		}
	}
}

// TestDCTExtractBitIdenticalToBlockCopy: the band-wide prefix transform
// gives the tensor the block-copy pipeline gave, bit for bit. (fft's own tests
// pin DCT2D to the naive transform, which closes the chain to the parent.)
func TestDCTExtractBitIdenticalToBlockCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, d := range []*DCT{
		{Blocks: 16, Coefs: 16}, {Blocks: 16, Coefs: 64}, {Blocks: 8, Coefs: 32}, {Blocks: 4, Coefs: 10},
	} {
		for i := 0; i < 24; i++ {
			clip := randomClip(t, rng)
			got, err := d.Extract(clip)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, d.Name(), got, blockCopyDCT(t, d, clip))
		}
	}
}

// TestPooledScratchDoesNotLeakBetweenClips: a dense clip, then an empty
// one, then smaller ones (a smaller image), then back, then a larger one,
// through each pooled extractor equal the same transform over a fresh
// raster.Rasterize, so neither stale pixels nor a stale size survive in
// the pool.
func TestPooledScratchDoesNotLeakBetweenClips(t *testing.T) {
	dense := testClip(t, geom.R(0, 0, 1024, 1024))
	busy := randomClip(t, rand.New(rand.NewSource(5)))
	steps := []struct {
		name string
		clip layout.Clip
	}{
		{"dense", dense}, {"empty", testClip(t)}, {"busy@512", sizedClip(t, 512, busy.Shapes...)},
		{"empty@512", sizedClip(t, 512)}, {"busy", busy}, {"dense@2048", sizedClip(t, 2048, geom.R(0, 0, 2048, 2048))},
	}
	for _, ex := range []imageExtractor{
		&Density{Grid: 8}, &CCAS{Rings: 4, Sectors: 6}, &DCT{Blocks: 8, Coefs: 6},
	} {
		for _, st := range steps {
			got, err := ex.Extract(st.clip)
			if err != nil {
				t.Fatal(err)
			}
			im, err := raster.Rasterize(raster.Config{Window: st.clip.Window, PixelNM: pixelNM}, st.clip.Shapes)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ex.fromImage(&scratch{im: *im})
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, ex.Name()+" "+st.name, got, want)
			if len(st.clip.Shapes) == 0 {
				for i, v := range got {
					if v != 0 {
						t.Fatalf("%s %s: feature %d = %v on an empty clip", ex.Name(), st.name, i, v)
					}
				}
			}
		}
	}
}

// TestExtractAllocations bounds what one steady-state DCT extraction
// allocates: the returned tensor, and neither the raster, the transform's
// scratch nor the zigzag order.
func TestExtractAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items on purpose under -race")
	}
	d := &DCT{Blocks: 16, Coefs: 16}
	clip := randomClip(t, rand.New(rand.NewSource(9)))
	if _, err := d.Extract(clip); err != nil { // fills the pool, builds the plan
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	const runs = 50
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := d.Extract(clip); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&m1)
	if allocs > 1 {
		t.Errorf("DCT.Extract allocates %v objects per call, want <= 1", allocs)
	}
	if per := (m1.TotalAlloc - m0.TotalAlloc) / (runs + 1); per > 40<<10 {
		t.Errorf("DCT.Extract allocates %d B per call, want <= 40 KB", per)
	}
}

// ccasFormula is CCAS as a per-pixel loop over the ring/sector formula,
// the reference for the table fromImage reads.
func ccasFormula(c *CCAS, im *raster.Image) []float64 {
	cx, cy := float64(im.W)/2, float64(im.H)/2
	maxR := math.Min(cx, cy)
	sums := make([]float64, c.Rings*c.Sectors)
	counts := make([]int, c.Rings*c.Sectors)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			dx := float64(x) + 0.5 - cx
			dy := float64(y) + 0.5 - cy
			r := math.Sqrt(dx*dx + dy*dy)
			if r >= maxR {
				continue
			}
			ring := int(r / maxR * float64(c.Rings))
			if ring >= c.Rings {
				ring = c.Rings - 1
			}
			ang := math.Atan2(dy, dx) + math.Pi
			sector := int(ang / (2 * math.Pi) * float64(c.Sectors))
			if sector >= c.Sectors {
				sector = c.Sectors - 1
			}
			idx := ring*c.Sectors + sector
			sums[idx] += im.Pix[y*im.W+x]
			counts[idx]++
		}
	}
	out := make([]float64, len(sums))
	for i := range sums {
		if counts[i] > 0 {
			out[i] = sums[i] / float64(counts[i])
		}
	}
	return out
}

// TestCCASTableMatchesFormula pins the table-driven CCAS to the per-pixel
// Sqrt/Atan2 loop by Float64bits, on square, non-square and odd-sized
// images and on rings and sectors that divide neither the radius nor 2π
// evenly, and has 8 goroutines make the first use of a fresh geometry at
// once (run it under -race).
func TestCCASTableMatchesFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	image := func(w, h int) *raster.Image {
		im := raster.NewImage(w, h)
		for i := range im.Pix {
			im.Pix[i] = rng.Float64()
		}
		return im
	}
	check := func(c *CCAS, im *raster.Image) error {
		got, err := c.fromImage(&scratch{im: *im})
		if err != nil {
			return err
		}
		want := ccasFormula(c, im)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return fmt.Errorf("%dx%d %s bin %d: table %v, formula %v", im.W, im.H, c.Name(), i, got[i], want[i])
			}
		}
		return nil
	}
	for _, sz := range [][2]int{{128, 128}, {64, 64}, {96, 40}, {33, 71}, {1, 1}, {2, 3}, {17, 17}} {
		for _, rs := range [][2]int{{8, 12}, {1, 1}, {3, 7}, {5, 11}, {7, 5}, {13, 17}} {
			if err := check(&CCAS{Rings: rs[0], Sectors: rs[1]}, image(sz[0], sz[1])); err != nil {
				t.Fatal(err)
			}
		}
	}

	c := &CCAS{Rings: 6, Sectors: 13}
	im := image(45, 77)
	ccasTables.Delete(ccasKey{im.W, im.H, c.Rings, c.Sectors})
	errs := make(chan error, 8)
	var start sync.WaitGroup
	start.Add(1)
	for g := 0; g < cap(errs); g++ {
		go func() {
			start.Wait()
			errs <- check(c, im)
		}()
	}
	start.Done()
	for g := 0; g < cap(errs); g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
