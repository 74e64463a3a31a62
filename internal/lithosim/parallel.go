// Process-corner evaluation for SimulateCtx.
//
// One simulation splits into independent units — first the unique-sigma
// aerial images (the expensive blurs), then the per-corner threshold +
// geometric checks — fanned over the process-wide kernel pool. Defect
// lists and the PV-band fold are assembled serially in corner order
// afterwards, so the Result is identical at any pool width (pinned by
// testdata/simulate_golden.json, written by the serial loop this
// replaced).

package lithosim

import (
	"context"
	"fmt"
	"strconv"

	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/raster"
	"github.com/golitho/hsd/internal/tensor"
	"github.com/golitho/hsd/internal/trace"
)

// runIndexed runs fn(0..n-1) on the persistent kernel pool
// (tensor.Default) and waits for all of them: at most one executor per
// index and no more than the pool's width (its workers plus the
// caller), so a single-core box runs the indices inline. fn must
// confine itself to index-owned state.
func runIndexed(n int, fn func(i int)) {
	tensor.Default().Run(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// firstErr returns the lowest-index non-nil error, making the reported
// interruption corner deterministic regardless of goroutine scheduling.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// simulateCorners evaluates every process corner of a rasterized clip.
// Cancellation is observed before each unit of work.
func (s *Simulator) simulateCorners(ctx context.Context, clip layout.Clip, mask *raster.Image) (Result, error) {
	corners := s.cfg.Corners
	// target is the drawn pattern at raster resolution, shared by every
	// corner's geometric checks.
	target := mask.Threshold(0.5)
	interrupted := func(i int) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("lithosim: simulation interrupted at corner %q: %w", corners[i].Name, err)
		}
		return nil
	}

	// Phase 1: one aerial image per unique sigma (corners sharing a
	// SigmaScale share the blur).
	kernelIdx := make(map[float64]int, 2)
	var sigmas []float64
	for i, c := range corners {
		if _, ok := kernelIdx[c.SigmaScale]; !ok {
			kernelIdx[c.SigmaScale] = i
			sigmas = append(sigmas, c.SigmaScale)
		}
	}
	aerials := make([]*raster.Image, len(sigmas))
	errs := make([]error, len(corners))
	runIndexed(len(sigmas), func(j int) {
		ki := kernelIdx[sigmas[j]]
		if err := interrupted(ki); err != nil {
			errs[ki] = err
			return
		}
		_, bsp := trace.Start(ctx, "blur",
			trace.A("sigma", strconv.FormatFloat(sigmas[j], 'g', -1, 64)))
		aerials[j] = blurSeparable(mask, s.kernels[ki])
		bsp.End()
	})
	if err := firstErr(errs); err != nil {
		return Result{}, err
	}
	aerialBySigma := make(map[float64]*raster.Image, len(sigmas))
	for j, sg := range sigmas {
		aerialBySigma[sg] = aerials[j]
	}

	// Phase 2: per-corner resist threshold + geometric checks, each into
	// its own slot.
	printed := make([]*raster.Mask, len(corners))
	defects := make([][]Defect, len(corners))
	runIndexed(len(corners), func(i int) {
		if err := interrupted(i); err != nil {
			errs[i] = err
			return
		}
		corner := corners[i]
		_, csp := trace.Start(ctx, "corner", trace.A("corner", corner.Name))
		p := aerialBySigma[corner.SigmaScale].Threshold(s.cfg.Threshold * corner.ThresholdScale)
		printed[i] = p
		defects[i] = s.checkCorner(clip, target, p, corner.Name)
		csp.SetAttrInt("defects", len(defects[i]))
		csp.End()
	})
	if err := firstErr(errs); err != nil {
		return Result{}, err
	}

	// Serial fold in corner order, so the Result does not depend on
	// which executor finished first.
	var res Result
	var pvOr, pvAnd *raster.Mask
	for i := range corners {
		res.Defects = append(res.Defects, defects[i]...)
		if pvOr == nil {
			pvOr = clonemask(printed[i])
			pvAnd = clonemask(printed[i])
		} else {
			for j := range printed[i].Pix {
				if printed[i].Pix[j] != 0 {
					pvOr.Pix[j] = 1
				} else {
					pvAnd.Pix[j] = 0
				}
			}
		}
	}
	res.Hotspot = len(res.Defects) > 0
	pxArea := float64(s.cfg.PixelNM) * float64(s.cfg.PixelNM)
	res.PVBandArea = float64(pvOr.Count()-pvAnd.Count()) * pxArea
	return res, nil
}
