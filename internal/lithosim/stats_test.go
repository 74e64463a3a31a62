package lithosim

import (
	"sync"
	"testing"

	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
)

func statsClip(t *testing.T) layout.Clip {
	t.Helper()
	l := layout.New("c")
	if err := l.AddRect(geom.R(200, 450, 800, 560)); err != nil {
		t.Fatal(err)
	}
	clip, err := l.ClipAt(geom.Pt(512, 512), 1024, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return clip
}

// TestStatsMeasuredODST checks that Simulate accumulates count and
// elapsed time (the measured ODST), that trivial clips cost nothing, and
// that concurrent simulation keeps the counters exact under -race.
func TestStatsMeasuredODST(t *testing.T) {
	sim, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	clip := statsClip(t)

	if _, err := sim.Simulate(clip); err != nil {
		t.Fatal(err)
	}
	st := sim.Stats()
	if st.Simulations != 1 || st.Elapsed <= 0 {
		t.Fatalf("stats after one sim = %+v", st)
	}

	// Empty-shape clips return trivially and must not count.
	empty := clip
	empty.Shapes = nil
	if _, err := sim.Simulate(empty); err != nil {
		t.Fatal(err)
	}
	if got := sim.Stats().Simulations; got != 1 {
		t.Fatalf("trivial clip counted: %d sims", got)
	}

	const workers, per = 4, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := sim.Simulate(clip); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	st = sim.Stats()
	if st.Simulations != 1+workers*per {
		t.Fatalf("concurrent sims = %d, want %d", st.Simulations, 1+workers*per)
	}
}
