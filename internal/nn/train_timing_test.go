package nn

import (
	"sync"
	"testing"
	"time"

	"github.com/golitho/hsd/internal/resilience"
)

// stepClock is a deterministic Clock whose Now advances a fixed step per
// call, so epoch durations are exact regardless of scheduler pressure
// (wall-clock timing flaked under parallel test execution).
type stepClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

// NewTimer is the wall clock's: Fit never waits on a timer.
func (c *stepClock) NewTimer(d time.Duration) resilience.Timer { return resilience.Real.NewTimer(d) }

// TestFitRecordsEpochTiming checks every epoch of the history carries
// exactly the duration the injected clock reports: Fit reads the clock
// once at epoch start and once at epoch end.
func TestFitRecordsEpochTiming(t *testing.T) {
	x := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {0.2, 0.1}, {0.9, 0.8}}
	y := []int{0, 1, 1, 0, 0, 1}
	net := BuildMLP(2, 8)
	clk := &stepClock{step: time.Millisecond}
	hist, err := Fit(net, x, y, TrainConfig{Epochs: 3, BatchSize: 2, Seed: 7, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 {
		t.Fatalf("history length = %d", len(hist))
	}
	for _, st := range hist {
		if st.Elapsed != clk.step {
			t.Fatalf("epoch %d Elapsed = %v, want exactly %v", st.Epoch, st.Elapsed, clk.step)
		}
	}
}

// TestFitDefaultClock: without an injected clock Fit still records a
// non-negative wall-clock duration per epoch.
func TestFitDefaultClock(t *testing.T) {
	x := [][]float64{{0, 0}, {1, 1}}
	y := []int{0, 1}
	hist, err := Fit(BuildMLP(2, 4), x, y, TrainConfig{Epochs: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 || hist[0].Elapsed < 0 {
		t.Fatalf("history = %+v", hist)
	}
}
