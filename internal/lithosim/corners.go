// Process-corner evaluation for SimulateCtx.
//
// One simulation is a handful of units — the unique-sigma aerial images,
// then each corner's threshold + geometric checks — run in corner order on
// the calling goroutine, into the call's scratch. Every bulk caller
// (suite generation, scan verification, the data engine) already runs one
// simulation per core, so there is nothing left for a second level of
// fan-out to win; see DESIGN §4. The Results are pinned by
// testdata/simulate_golden.json, written by the seed's serial loop.

package lithosim

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"

	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/trace"
)

// simulateCorners evaluates every process corner of the clip rasterized
// in sc.mask. Cancellation is observed before each unit of work.
func (s *Simulator) simulateCorners(ctx context.Context, clip layout.Clip, sc *scratch) (Result, error) {
	corners := s.cfg.Corners
	interrupted := func(i int) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("lithosim: simulation interrupted at corner %q: %w", corners[i].Name, err)
		}
		return nil
	}

	// Phase 1: one aerial image per unique sigma (corners sharing a
	// SigmaScale share the blur).
	sc.cols.fill(s.reach, sc.mask.Pix, sc.h, sc.w)
	for j := range s.kernels {
		if err := interrupted(s.kernels[j].corner); err != nil {
			return Result{}, err
		}
		_, bsp := trace.Start(ctx, "blur")
		bsp.SetAttr("sigma", s.kernels[j].sigma)
		s.blur(&sc.aerial[j], sc, j)
		bsp.End()
	}

	// Phase 2: per-corner resist threshold + geometric checks. target is
	// the drawn pattern at raster resolution, shared by every corner.
	sc.mask.ThresholdInto(&sc.target, 0.5)
	sc.drawn(s, clip)
	var res Result
	for i, corner := range corners {
		if err := interrupted(i); err != nil {
			return Result{}, err
		}
		_, csp := trace.Start(ctx, "corner")
		csp.SetAttr("corner", corner.Name)
		sc.aerial[s.blurOf[i]].ThresholdInto(&sc.printed[i], s.cfg.Threshold*corner.ThresholdScale)
		before := len(res.Defects)
		res.Defects = s.checkCorner(res.Defects, clip, sc, i)
		csp.SetAttrInt("defects", len(res.Defects)-before)
		csp.End()
	}
	res.Hotspot = len(res.Defects) > 0

	// The PV band: pixels printed at some corners but not at all of them,
	// compared eight mask bytes to the word while whole words last.
	band, first, p := 0, sc.printed[0].Pix, 0
	for ; p+8 <= len(first); p += 8 {
		w0, differs := binary.LittleEndian.Uint64(first[p:]), uint64(0)
		for _, m := range sc.printed[1:] {
			differs |= binary.LittleEndian.Uint64(m.Pix[p:]) ^ w0
		}
		band += bits.OnesCount64(differs)
	}
	for ; p < len(first); p++ {
		for _, m := range sc.printed[1:] {
			if m.Pix[p] != first[p] {
				band++
				break
			}
		}
	}
	pxArea := float64(s.cfg.PixelNM) * float64(s.cfg.PixelNM)
	res.PVBandArea = float64(band) * pxArea
	return res, nil
}
