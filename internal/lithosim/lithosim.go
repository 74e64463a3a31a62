// Package lithosim implements a compact optical lithography simulator used
// as the ground-truth oracle for hotspot labelling and as the verification
// cost model behind the ODST metric.
//
// # Model
//
// The mask (a rasterized layout clip) is imaged through a coherent
// approximation of a Hopkins partially-coherent system: the aerial image is
// the mask convolved with a Gaussian point-spread function whose width
// sigma ~ k1 * lambda / NA. A constant-threshold resist model turns the
// aerial image into the printed pattern. Process variation is modelled by
// corners: defocus widens the PSF, dose shifts the resist threshold.
//
// # Defects
//
// A clip is a hotspot when any process corner produces, inside the clip's
// core region, one of:
//
//   - bridge: printed material connects two layout shapes that are drawn
//     apart;
//   - neck (pinch): a printed feature is thinner than a fraction of its
//     drawn width;
//   - open: a drawn feature fails to print;
//   - EPE: the printed edge deviates from the drawn edge by more than the
//     edge-placement tolerance.
//
// This captures the physics that makes hotspot detection learnable: failures
// are local, diffraction-driven, and correlated with drawn geometry.
package lithosim

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/raster"
	"github.com/golitho/hsd/internal/tensor"
)

// DefectType enumerates printing failure categories.
type DefectType int

// Defect categories, in increasing order of severity for reporting only.
const (
	DefectBridge DefectType = iota + 1
	DefectNeck
	DefectOpen
	DefectEPE
)

// String returns the lower-case defect name.
func (d DefectType) String() string {
	switch d {
	case DefectBridge:
		return "bridge"
	case DefectNeck:
		return "neck"
	case DefectOpen:
		return "open"
	case DefectEPE:
		return "epe"
	default:
		return fmt.Sprintf("defect(%d)", int(d))
	}
}

// Corner is one process condition.
type Corner struct {
	// Name identifies the corner in reports.
	Name string
	// SigmaScale multiplies the nominal PSF sigma (defocus model).
	SigmaScale float64
	// ThresholdScale multiplies the nominal resist threshold (dose model).
	ThresholdScale float64
}

// Defect is a single printing failure found at a process corner.
type Defect struct {
	Type   DefectType
	Corner string
	// At is the approximate defect location in layout coordinates.
	At geom.Point
}

// Result is the oracle's verdict for one clip.
type Result struct {
	Hotspot bool
	Defects []Defect
	// PVBandArea is the process-variation band area in square nanometres:
	// pixels printed at some but not all corners. A stability measure.
	PVBandArea float64
}

// Config parameterizes the simulator. Use DefaultConfig as a base.
type Config struct {
	// PixelNM is the simulation raster pitch in nanometres.
	PixelNM int
	// WavelengthNM and NA set the optical resolution; SigmaNM overrides
	// the derived PSF width when positive.
	WavelengthNM float64
	NA           float64
	// K1 is the process difficulty factor in sigma = K1 * lambda / NA.
	K1 float64
	// SigmaNM, when > 0, is the PSF standard deviation directly.
	SigmaNM float64
	// Threshold is the nominal resist threshold on the aerial image
	// (mask values are in [0, 1]).
	Threshold float64
	// Corners are the process conditions checked; a defect at any corner
	// makes the clip a hotspot. Empty means nominal only.
	Corners []Corner
	// NeckFrac: printed width below NeckFrac * drawn width is a neck.
	NeckFrac float64
	// EPETolNM is the edge-placement-error tolerance in nanometres.
	EPETolNM float64
	// MinCheckWidthNM: drawn features narrower than this are skipped by
	// the neck check (sub-resolution assist features would false-fire).
	MinCheckWidthNM int
}

// DefaultConfig models an aggressive ArF immersion process (193 nm, NA
// 1.35) at a ~32 nm-class metal layer with a 1024 nm clip window.
func DefaultConfig() Config {
	return Config{
		PixelNM:      8,
		WavelengthNM: 193,
		NA:           1.35,
		K1:           0.21,
		Threshold:    0.5,
		Corners: []Corner{
			{Name: "nominal", SigmaScale: 1, ThresholdScale: 1},
			{Name: "defocus", SigmaScale: 1.25, ThresholdScale: 1},
			{Name: "dose+", SigmaScale: 1, ThresholdScale: 0.93},
			{Name: "dose-", SigmaScale: 1, ThresholdScale: 1.07},
		},
		NeckFrac:        0.65,
		EPETolNM:        28,
		MinCheckWidthNM: 40,
	}
}

// Sigma returns the effective PSF standard deviation in nanometres.
func (c Config) Sigma() float64 {
	if c.SigmaNM > 0 {
		return c.SigmaNM
	}
	return c.K1 * c.WavelengthNM / c.NA
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.PixelNM <= 0 {
		return fmt.Errorf("lithosim: PixelNM must be positive, got %d", c.PixelNM)
	}
	if c.Sigma() <= 0 {
		return fmt.Errorf("lithosim: nonpositive sigma %v", c.Sigma())
	}
	if c.Threshold <= 0 || c.Threshold >= 1 {
		return fmt.Errorf("lithosim: threshold must be in (0,1), got %v", c.Threshold)
	}
	if c.NeckFrac <= 0 || c.NeckFrac >= 1 {
		return fmt.Errorf("lithosim: NeckFrac must be in (0,1), got %v", c.NeckFrac)
	}
	for _, k := range c.Corners {
		if k.SigmaScale <= 0 || k.ThresholdScale <= 0 {
			return fmt.Errorf("lithosim: corner %q has nonpositive scales", k.Name)
		}
	}
	return nil
}

// Simulator runs the optical model. It builds one blur kernel per distinct
// corner sigma at construction, lends each call its scratch from a pool,
// and is safe for concurrent use.
type Simulator struct {
	cfg Config
	// kernels holds one blur per distinct SigmaScale, in first-corner
	// order; blurOf[i] is the kernel of cfg.Corners[i]. reach is the
	// largest kernel radius: the zero border every scratch image carries.
	kernels []blurKernel
	blurOf  []int
	reach   int
	// scratch pools *scratch: a call takes one, sizes it to its clip and
	// puts it back, so a steady caller allocates only what it returns.
	scratch sync.Pool

	// Cumulative oracle usage, updated atomically by Simulate: the
	// measured ODST contribution of this simulator instance.
	simCount atomic.Int64
	simNanos atomic.Int64
}

// SimStats is the cumulative oracle usage of a Simulator: how many full
// process-window simulations ran and how much wall-clock time they took.
// Elapsed is the measured ODST verification term of the paper's metric.
type SimStats struct {
	Simulations int64
	Elapsed     time.Duration
}

// Stats returns the cumulative usage since construction or the last
// ResetStats. Safe for concurrent use with Simulate.
func (s *Simulator) Stats() SimStats {
	return SimStats{
		Simulations: s.simCount.Load(),
		Elapsed:     time.Duration(s.simNanos.Load()),
	}
}

// ResetStats zeroes the usage counters, e.g. between benchmark runs.
func (s *Simulator) ResetStats() {
	s.simCount.Store(0)
	s.simNanos.Store(0)
}

// New constructs a Simulator, validating the configuration.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Corners) == 0 {
		cfg.Corners = []Corner{{Name: "nominal", SigmaScale: 1, ThresholdScale: 1}}
	}
	s := &Simulator{cfg: cfg, blurOf: make([]int, len(cfg.Corners))}
	for i, c := range cfg.Corners {
		first := slices.IndexFunc(cfg.Corners[:i], func(p Corner) bool { return p.SigmaScale == c.SigmaScale })
		if first >= 0 {
			s.blurOf[i] = s.blurOf[first]
			continue
		}
		s.blurOf[i] = len(s.kernels)
		k := newBlurKernel(gauss1D(cfg.Sigma()*c.SigmaScale/float64(cfg.PixelNM)), i, c.SigmaScale)
		s.kernels = append(s.kernels, k)
		s.reach = max(s.reach, k.radius())
	}
	return s, nil
}

// Config returns the simulator's (normalized) configuration.
func (s *Simulator) Config() Config { return s.cfg }

// gauss1D builds a normalized 1-D Gaussian kernel with radius 3*sigmaPx.
func gauss1D(sigmaPx float64) []float64 {
	r := int(math.Ceil(3 * sigmaPx))
	if r < 1 {
		r = 1
	}
	k := make([]float64, 2*r+1)
	var sum float64
	for i := -r; i <= r; i++ {
		v := math.Exp(-float64(i*i) / (2 * sigmaPx * sigmaPx))
		k[i+r] = v
		sum += v
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// bandRows is how many output rows one blur product computes: the height
// of the matmul kernel's register tile.
const bandRows = 4

// blurKernel is one separable Gaussian laid out for tensor's matmul
// kernel. A blur pass convolves down the columns of a zero-bordered image:
// output row y is the sum over t of taps[t] times input row y+t, which is
// a product whose right-hand rows are views of the image where it lies.
// band stacks bandRows copies of the taps, copy i shifted right by i, so
// one product yields bandRows consecutive output rows from
// len(taps)+bandRows-1 input rows and fills the 4-row tile.
//
// The scalar loop this replaced summed pix*taps[t] in ascending t from
// zero, truncated at the image edge. That is the kernel's association; the
// border and the band's padding only add 0*taps[t] and pix*0 terms, and
// for finite pixels x+0 == x and 0+0 == 0 exactly, so no bit moves.
type blurKernel struct {
	taps   []float64
	band   []float64 // bandRows x (len(taps)+bandRows-1), row-major
	corner int       // first corner that uses this blur, for error reports
	sigma  string    // its SigmaScale, as the blur span prints it
}

func newBlurKernel(taps []float64, corner int, sigmaScale float64) blurKernel {
	k := blurKernel{taps: taps, corner: corner, sigma: strconv.FormatFloat(sigmaScale, 'g', -1, 64)}
	k.band = make([]float64, bandRows*k.bandCols())
	for i := 0; i < bandRows; i++ {
		copy(k.band[i*k.bandCols()+i:], taps)
	}
	return k
}

func (k *blurKernel) radius() int   { return (len(k.taps) - 1) / 2 }
func (k *blurKernel) bandCols() int { return len(k.taps) + bandRows - 1 }

// bordered is an image laid out for blur passes: rows of values under
// reach rows of zeros, with reach+bandRows-1 more below (the extra rows
// let the last, short band read a full table). The zeros are written once,
// at allocation. tables[j] addresses kernel j's band products in it;
// offsets are multiples of the stride, so they are built with the image.
type bordered struct {
	pix    []float64
	stride int
	tables []tensor.RowTable
}

// newBordered allocates a bordered image of rows x n. The stride is odd:
// fill stores down columns, and at a power-of-two stride a 128-row column
// would land in one cache set (45 us a fill where this takes 8).
func (s *Simulator) newBordered(rows, n int) bordered {
	b := bordered{stride: n | 1}
	b.pix = make([]float64, (rows+2*s.reach+bandRows-1)*b.stride)
	for j := range s.kernels {
		k := &s.kernels[j]
		off := make([]int, k.bandCols())
		for t := range off {
			off[t] = (s.reach - k.radius() + t) * b.stride
		}
		b.tables = append(b.tables, tensor.NewRowTable(off))
	}
	return b
}

// fill sets b's rows to the transpose of src, a row-major n x cols matrix.
func (b *bordered) fill(reach int, src []float64, n, cols int) {
	dst := b.pix[reach*b.stride:]
	for i := 0; i < n; i++ {
		for j, v := range src[i*cols : (i+1)*cols] {
			dst[j*b.stride+i] = v
		}
	}
}

// pass writes rows x n outputs to dst: kernel j's taps convolved down the
// columns of src.
func (s *Simulator) pass(dst []float64, src *bordered, j, rows, n int) {
	for y := 0; y < rows; y += bandRows {
		tensor.MatMulAddressedInto(dst[y*n:], n, s.kernels[j].band, min(bandRows, rows-y),
			src.pix[y*src.stride:], src.tables[j], n)
	}
}

// scratch is everything one simulation computes into, sized for one image
// shape and reused through Simulator.scratch. Nothing in it outlives the
// call that took it: what a caller receives is copied or freshly made.
type scratch struct {
	w, h int
	mask raster.Image // the rasterized clip
	// The blur runs both passes down columns, transposing between them:
	// cols is the mask transposed (w rows of h), mid the first pass's
	// output, rows is mid transposed back (h rows of w).
	cols, rows      bordered
	mid             []float64
	aerial          []raster.Image // per kernel
	printed         []raster.Mask  // per corner
	target, inShape raster.Mask
	nets, near      []int
	pairs           [][2]int
}

// getScratch takes a scratch from the pool, or an empty one.
func (s *Simulator) getScratch() *scratch {
	if sc, ok := s.scratch.Get().(*scratch); ok {
		return sc
	}
	return new(scratch)
}

// fit sizes sc for w x h images; a scratch that already fits is untouched.
func (sc *scratch) fit(s *Simulator, w, h int) {
	if sc.w == w && sc.h == h && sc.mid != nil {
		return
	}
	*sc = scratch{w: w, h: h, mask: sc.mask,
		cols: s.newBordered(w, h), rows: s.newBordered(h, w), mid: make([]float64, w*h),
		aerial: make([]raster.Image, len(s.kernels)), printed: make([]raster.Mask, len(s.cfg.Corners)),
		inShape: *raster.NewMask(w, h)}
	for j := range sc.aerial {
		sc.aerial[j] = *raster.NewImage(w, h)
	}
}

// blur writes kernel j's aerial image to out, which must be w x h, from
// the mask last transposed into sc.cols. Horizontal pass first, as the
// scalar loop ran it.
func (s *Simulator) blur(out *raster.Image, sc *scratch, j int) {
	s.pass(sc.mid, &sc.cols, j, sc.w, sc.h)
	sc.rows.fill(s.reach, sc.mid, sc.w, sc.h)
	s.pass(out.Pix, &sc.rows, j, sc.h, sc.w)
}

// AerialImage computes the nominal aerial image of a mask raster. The
// returned image is the caller's: it is never pooled scratch.
func (s *Simulator) AerialImage(mask *raster.Image) *raster.Image {
	return s.aerialImage(mask, 0)
}

func (s *Simulator) aerialImage(mask *raster.Image, corner int) *raster.Image {
	out := raster.NewImage(mask.W, mask.H)
	sc := s.getScratch()
	sc.fit(s, mask.W, mask.H)
	sc.cols.fill(s.reach, mask.Pix, mask.H, mask.W)
	s.blur(out, sc, s.blurOf[corner])
	s.scratch.Put(sc)
	return out
}

// AerialImageAt computes the aerial image at corner index i, caller-owned
// like AerialImage's.
func (s *Simulator) AerialImageAt(mask *raster.Image, i int) (*raster.Image, error) {
	if i < 0 || i >= len(s.blurOf) {
		return nil, fmt.Errorf("lithosim: corner index %d out of range [0,%d)", i, len(s.blurOf))
	}
	return s.aerialImage(mask, i), nil
}

// Print returns the printed resist pattern of a mask raster at corner i,
// a mask the caller owns.
func (s *Simulator) Print(mask *raster.Image, i int) (*raster.Mask, error) {
	aer, err := s.AerialImageAt(mask, i)
	if err != nil {
		return nil, err
	}
	return aer.Threshold(s.cfg.Threshold * s.cfg.Corners[i].ThresholdScale), nil
}
