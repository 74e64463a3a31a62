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
	"sync/atomic"
	"time"

	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/raster"
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

// Simulator runs the optical model. It caches Gaussian kernels per corner
// and is safe for concurrent use after construction.
type Simulator struct {
	cfg Config
	// kernels[i] is the 1-D separable blur kernel for cfg.Corners[i]
	// (or the nominal kernel at index 0 when Corners is empty).
	kernels [][]float64

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
	s := &Simulator{cfg: cfg}
	s.kernels = make([][]float64, len(cfg.Corners))
	for i, k := range cfg.Corners {
		s.kernels[i] = gauss1D(cfg.Sigma() * k.SigmaScale / float64(cfg.PixelNM))
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

// blurSeparable convolves im with the separable kernel k (zero padding).
func blurSeparable(im *raster.Image, k []float64) *raster.Image {
	r := (len(k) - 1) / 2
	tmp := raster.NewImage(im.W, im.H)
	// Horizontal pass.
	for y := 0; y < im.H; y++ {
		row := y * im.W
		for x := 0; x < im.W; x++ {
			var s float64
			lo, hi := -r, r
			if x+lo < 0 {
				lo = -x
			}
			if x+hi >= im.W {
				hi = im.W - 1 - x
			}
			for d := lo; d <= hi; d++ {
				s += im.Pix[row+x+d] * k[d+r]
			}
			tmp.Pix[row+x] = s
		}
	}
	out := raster.NewImage(im.W, im.H)
	// Vertical pass.
	for y := 0; y < im.H; y++ {
		lo, hi := -r, r
		if y+lo < 0 {
			lo = -y
		}
		if y+hi >= im.H {
			hi = im.H - 1 - y
		}
		for x := 0; x < im.W; x++ {
			var s float64
			for d := lo; d <= hi; d++ {
				s += tmp.Pix[(y+d)*im.W+x] * k[d+r]
			}
			out.Pix[y*im.W+x] = s
		}
	}
	return out
}

// AerialImage computes the nominal aerial image of a mask raster.
func (s *Simulator) AerialImage(mask *raster.Image) *raster.Image {
	return blurSeparable(mask, s.kernels[0])
}

// AerialImageAt computes the aerial image at corner index i.
func (s *Simulator) AerialImageAt(mask *raster.Image, i int) (*raster.Image, error) {
	if i < 0 || i >= len(s.kernels) {
		return nil, fmt.Errorf("lithosim: corner index %d out of range [0,%d)", i, len(s.kernels))
	}
	return blurSeparable(mask, s.kernels[i]), nil
}

// Print returns the printed resist pattern of a mask raster at corner i.
func (s *Simulator) Print(mask *raster.Image, i int) (*raster.Mask, error) {
	aer, err := s.AerialImageAt(mask, i)
	if err != nil {
		return nil, err
	}
	return aer.Threshold(s.cfg.Threshold * s.cfg.Corners[i].ThresholdScale), nil
}
