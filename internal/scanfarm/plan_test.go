package scanfarm

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
)

// pinChip's bounds are [-300,200 - 900,1100]: off-origin and not a
// multiple of any stride below.
func pinChip(t *testing.T) *layout.Layout {
	t.Helper()
	chip := layout.New("pin")
	for _, r := range []geom.Rect{geom.R(-300, 200, 100, 260), geom.R(700, 1000, 900, 1100)} {
		if err := chip.AddRect(r); err != nil {
			t.Fatal(err)
		}
	}
	return chip
}

// TestGridPinnedCenters pins the one window enumeration both schedulers
// share to literal values computed at the commit before core.Grid
// existed, when core.ScanCtx and scanfarm.NewPlan each had their own
// copy and agreed: any drift in the defaults, the core rounding or the
// anchoring moves a center here.
func TestGridPinnedCenters(t *testing.T) {
	chip := pinChip(t)
	for _, tc := range []struct {
		name    string
		cfg     Config
		stride  int
		centers []geom.Point
		shard0  geom.Rect
	}{
		{"odd-core", Config{ClipNM: 1000, CoreFrac: 0.35}, 350, []geom.Point{
			{X: -125, Y: 375}, {X: 225, Y: 375}, {X: 575, Y: 375}, {X: 925, Y: 375},
			{X: -125, Y: 725}, {X: 225, Y: 725}, {X: 575, Y: 725}, {X: 925, Y: 725},
			{X: -125, Y: 1075}, {X: 225, Y: 1075}, {X: 575, Y: 1075}, {X: 925, Y: 1075},
		}, geom.R(-300, 200, 1100, 900)},
		{"defaults", Config{}, 512, []geom.Point{
			{X: -44, Y: 456}, {X: 468, Y: 456}, {X: 980, Y: 456},
			{X: -44, Y: 968}, {X: 468, Y: 968}, {X: 980, Y: 968},
		}, geom.R(-300, 200, 1236, 1224)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := NewPlan(chip.Bounds(), tc.cfg)
			if plan.Windows() != len(tc.centers) || plan.CoreNM() != tc.stride {
				t.Fatalf("plan has %d windows at stride %d, want %d at %d",
					plan.Windows(), plan.CoreNM(), len(tc.centers), tc.stride)
			}
			var got []geom.Point
			for id := 0; id < plan.NumShards; id++ {
				got = append(got, plan.ShardWindows(id)...)
			}
			if !reflect.DeepEqual(got, tc.centers) {
				t.Fatalf("plan centers %v, want %v", got, tc.centers)
			}
			if b := plan.ShardBounds(0); b != tc.shard0 {
				t.Fatalf("shard 0 bounds %v, want %v", b, tc.shard0)
			}

			// A detector that flags everything turns the serial scan's
			// findings into its enumeration.
			res, err := core.ScanCtx(context.Background(), chip, densityDetector{thr: -1}, core.ScanConfig{
				ClipNM: tc.cfg.ClipNM, CoreFrac: tc.cfg.CoreFrac})
			if err != nil {
				t.Fatal(err)
			}
			got = got[:0]
			for _, f := range res.Findings {
				got = append(got, f.Center)
			}
			if res.Windows != len(tc.centers) || !reflect.DeepEqual(got, tc.centers) {
				t.Fatalf("core scan enumerated %d windows %v, want %v", res.Windows, got, tc.centers)
			}
		})
	}
}

// TestEmptyCoreGeometryRefused: a geometry whose core half-edge rounds
// to zero used to spin core.ScanCtx forever (default stride 0) and
// divide by zero in NewPlan. Both entry points now refuse it with an
// error naming the two fields, and NewPlan yields a plan with no shards.
func TestEmptyCoreGeometryRefused(t *testing.T) {
	chip := pinChip(t)
	det := densityDetector{thr: 0.5}
	for _, tc := range []struct {
		name     string
		clipNM   int
		coreFrac float64
	}{
		{"tiny-clip", 2, 0},
		{"tiny-core", 0, 0.001},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errs := make(chan error, 2)
			go func() {
				_, err := core.ScanCtx(context.Background(), chip, det,
					core.ScanConfig{ClipNM: tc.clipNM, CoreFrac: tc.coreFrac})
				errs <- err
			}()
			go func() {
				cfg := Config{ClipNM: tc.clipNM, CoreFrac: tc.coreFrac}
				if p := NewPlan(chip.Bounds(), cfg); p.NumShards != 0 || p.Windows() != 0 {
					t.Errorf("NewPlan = %+v, want a plan with no shards", p)
				}
				_, err := Run(context.Background(), chip, det, cfg)
				errs <- err
			}()
			for i := 0; i < 2; i++ {
				select {
				case err := <-errs:
					if err == nil || !strings.Contains(err.Error(), "ClipNM") || !strings.Contains(err.Error(), "CoreFrac") {
						t.Errorf("err = %v, want one naming ClipNM and CoreFrac", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("scan of an empty-core geometry did not return")
				}
			}
		})
	}
}
