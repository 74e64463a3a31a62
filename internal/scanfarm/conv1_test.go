package scanfarm

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/golitho/hsd/internal/faultinject"
	"github.com/golitho/hsd/internal/features"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
)

// fallbackChip is a chip of 512 nm cells whose window columns repeat and
// go blank on purpose. At the default geometry window (col, row) covers
// cells col..col+1 and row..row+1 of a grid anchored 256 nm left of and
// below the die's corner, and cell (i, j) holds random rectangles drawn
// from (i, kind[j]): windows 1 and 3 of a row are the same clip (so is
// 11), window 8 is blank, and windows 4, 9 and 12 are misses whose left
// neighbour was a cache hit or skipped. Row and column 0 hold only the
// marker that pins the die's corner.
func fallbackChip(t testing.TB, rows int) *layout.Layout {
	t.Helper()
	kinds := []int{-1, 0, 1, 0, 1, 2, 3, -1, -1, 4, 5, 0, 1, 6, 7}
	l := layout.New("fallback-chip")
	add := func(r geom.Rect) {
		if err := l.AddRect(r); err != nil {
			t.Fatal(err)
		}
	}
	add(geom.R(0, 0, 8, 8))
	for i := 1; i <= rows; i++ {
		for j, kind := range kinds {
			if kind < 0 {
				continue
			}
			rng := rand.New(rand.NewSource(int64(100*i + kind)))
			x0, y0 := 512*j-248, 512*i-248
			for n := 2 + rng.Intn(5); n > 0; n-- {
				x, y := x0+rng.Intn(400), y0+rng.Intn(400)
				add(geom.R(x, y, x+16+rng.Intn(480-(x-x0)), y+16+rng.Intn(480-(y-y0))))
			}
		}
	}
	return l
}

// TestFarmConv1FallbackMatchesCoreScan: a window whose left neighbour's
// first-layer sums are not in the memo computes all of its own, and its
// score is still core.ScanCtx's. That neighbour was a cache hit or a
// blank window SkipEmpty left unscored. A fault fails its shard, and the
// worker's next shard starts over at column 0 with the failed scan's
// sums forgotten. Every scored window is flagged, so the findings
// compare every score's bits.
func TestFarmConv1FallbackMatchesCoreScan(t *testing.T) {
	defer faultinject.Reset()
	det := *fittedCNN(t, false)
	det.Thr = 1e-300
	if det.Conv1() == nil {
		t.Fatal("the zoo's CNN does not share its first layer")
	}
	chip := fallbackChip(t, 4)
	base := Config{SkipEmpty: true, Workers: 1, ShardRows: 1}
	want := referenceFindings(t, chip, &det, base)

	// The fixture must hold what it is for: misses, in the sweep's order,
	// whose left neighbour was answered from the cache or skipped.
	plan := NewPlan(chip.Bounds(), base)
	seen := map[layout.Fingerprint]bool{}
	afterHit, afterBlank := 0, 0
	for row := 0; row < plan.Rows; row++ {
		left := ""
		for col := 0; col < plan.Cols; col++ {
			fp, shapes, err := chip.FingerprintAt(plan.Center(col, row), plan.ClipNM, plan.CoreFrac)
			if err != nil {
				t.Fatal(err)
			}
			now := "miss"
			switch {
			case shapes == 0:
				now = "blank"
			case seen[fp]:
				now = "hit"
			}
			seen[fp] = true
			if now == "miss" && left == "hit" {
				afterHit++
			}
			if now == "miss" && left == "blank" {
				afterBlank++
			}
			left = now
		}
	}
	if afterHit == 0 || afterBlank == 0 || len(want) < plan.Windows()/2 {
		t.Fatalf("fixture: %d misses after a hit, %d after a blank window, %d of %d windows scored",
			afterHit, afterBlank, len(want), plan.Windows())
	}

	for _, tc := range []struct {
		cache int
		fault faultinject.Fault
	}{
		{4096, faultinject.Fault{}},
		{4096, faultinject.Fault{Err: errTransient, Skip: 5, Count: 4}},
		{0, faultinject.Fault{Err: errTransient, Skip: 5, Count: 4}},
		{0, faultinject.Fault{Panic: "mid-row", Skip: 9, Count: 2}},
	} {
		t.Run(fmt.Sprintf("cache%d-%+v", tc.cache, tc.fault), func(t *testing.T) {
			faultinject.Reset()
			if tc.fault.Count > 0 {
				faultinject.Set(WindowScoreSite, tc.fault)
			}
			cfg := base
			cfg.CacheSize = tc.cache
			res, err := Run(context.Background(), chip, &det, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fired := faultinject.Fired(WindowScoreSite); fired != tc.fault.Count {
				t.Fatalf("the fault fired %d times, want %d", fired, tc.fault.Count)
			}
			checkFaulted(t, plan, res, want, WindowScoreSite, "window at")
		})
	}
}

// TestConv1SkipsOtherDetectors: a standardised detector, a network whose
// first conv does not read the tensor one channel a coefficient and one
// position a block, and any geometry whose tiles do not cover the window
// score window by window.
func TestConv1SkipsOtherDetectors(t *testing.T) {
	plain, scaled := fittedCNN(t, false), fittedCNN(t, true)
	plan := NewPlan(geom.R(0, 0, 8192, 8192), Config{})
	if m := newTileMemo(plain, plan); m == nil || m.conv == nil {
		t.Fatal("the zoo's CNN at the default geometry does not share its first layer")
	}
	if m := newTileMemo(scaled, plan); m != nil {
		t.Fatal("a standardised CNN shares its tiles")
	}
	if scaled.Conv1() != nil {
		t.Fatal("a standardised CNN offers its Conv1")
	}
	// The same 4 096 features as 8 x 8 blocks of 64 coefficients: the
	// network accepts the width, but its conv reads 16 channels of 16 x 16.
	reshaped := *plain
	reshaped.Ex = &features.DCT{Blocks: 8, Coefs: 64}
	other, err := reshaped.WithNetwork(plain.Network())
	if err != nil {
		t.Fatal(err)
	}
	if other.Conv1() != nil {
		t.Fatal("a conv over 16 channels of 16 x 16 is offered for 64 channels of 8 x 8")
	}
	if m := newTileMemo(other, plan); m != nil {
		t.Fatal("a CNN whose conv does not match its tensor shares its tiles")
	}
	if m := newTileMemo(plain, NewPlan(geom.R(0, 0, 8192, 8192), Config{CoreFrac: 500.0 / 1024})); m != nil {
		t.Fatal("a 500 nm core split the window into tiles")
	}
}
