package lithosim

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"github.com/golitho/hsd/internal/layout"
)

// perRun reports what one call of fn allocates in the steady state, in
// objects and bytes: the mean of 100 calls after a warm-up call, on one P
// (a sync.Pool keeps a per-P slot no other P can reach, and drops
// everything when GOMAXPROCS changes, so the warm-up comes after that).
// Both means are floored, which also drops the odd allocation the runtime
// makes behind the test's back; strayBytes allows for one that lands on a
// mean that is not zero.
func perRun(fn func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 100
	fn()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return (m1.Mallocs - m0.Mallocs) / runs, (m1.TotalAlloc - m0.TotalAlloc) / runs
}

const strayBytes = 64

// TestSimulateAllocations pins what a steady-state SimulateCtx allocates
// on a simulator whose pool is warm: nothing on a clean clip, and on a
// hotspot exactly what appending its defects to the returned
// Result.Defects costs. The mask, the bordered blur images, the aerials,
// the printed masks and the bridge check's bookkeeping are all the call's
// pooled scratch (the seed's loop: 423 objects, 880 KB per clip).
func TestSimulateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items on purpose under -race")
	}
	s := newSim(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(51))
	var clean, hot layout.Clip
	var defects int
	for clean.Shapes == nil || hot.Shapes == nil {
		clip := randomTestClip(t, rng)
		res, err := s.SimulateCtx(ctx, clip)
		if err != nil {
			t.Fatal(err)
		}
		if res.Hotspot && len(res.Defects) > defects {
			hot, defects = clip, len(res.Defects)
		} else if !res.Hotspot {
			clean = clip
		}
	}
	simulate := func(clip layout.Clip) func() {
		return func() {
			if _, err := s.SimulateCtx(ctx, clip); err != nil {
				t.Fatal(err)
			}
		}
	}

	if allocs, bytes := perRun(simulate(clean)); allocs != 0 || bytes != 0 {
		t.Errorf("a clean clip allocates %v objects, %d B per simulation, want none", allocs, bytes)
	}
	var sink []Defect
	wantAllocs, wantBytes := perRun(func() {
		sink = nil
		for i := 0; i < defects; i++ {
			sink = append(sink, Defect{})
		}
	})
	if allocs, bytes := perRun(simulate(hot)); allocs != wantAllocs || bytes > wantBytes+strayBytes {
		t.Errorf("a clip with %d defects allocates %v objects, %d B per simulation; the returned Defects alone cost %v, %d B",
			defects, allocs, bytes, wantAllocs, wantBytes)
	}
}
