package qualitymon

import (
	"testing"
	"time"

	"github.com/golitho/hsd/internal/resilience"
)

// newFakeClock is the tests' shared starting instant on a frozen clock.
func newFakeClock() *resilience.FakeClock {
	return resilience.NewFakeClock(time.Unix(1_700_000_000, 0))
}

func TestWindowRingRotation(t *testing.T) {
	sub := 10 * time.Second
	r := newWindowRing(sub, 3)
	base := time.Unix(1000, 0)
	ep := func(at time.Time) int64 { return r.epochOf(at) }

	r.add(base, ep(base), 0)
	r.add(base.Add(sub), ep(base.Add(sub)), 0)
	r.add(base.Add(2*sub), ep(base.Add(2*sub)), 0)
	if got := r.merged(ep(base.Add(2*sub)), 3)[0]; got != 3 {
		t.Fatalf("3 sub-windows merged: got %d, want 3", got)
	}
	if got := r.merged(ep(base.Add(2*sub)), 1)[0]; got != 1 {
		t.Fatalf("fast window: got %d, want 1", got)
	}
	// Advancing one more sub-window drops the oldest slot when written.
	at := base.Add(3 * sub)
	for i := 0; i < 5; i++ {
		r.add(at, ep(at), 0)
	}
	if got := r.merged(ep(at), 3)[0]; got != 7 {
		t.Fatalf("after rotation: got %d, want 7 (1+1+5)", got)
	}
	// A timestamp older than the ring's span is discarded, not counted
	// into a recycled slot.
	r.add(base.Add(-10*sub), ep(at), 0)
	if got := r.merged(ep(at), 3)[0]; got != 7 {
		t.Fatalf("stale event leaked into ring: got %d, want 7", got)
	}
}

func TestWindowRingFutureEpochExcluded(t *testing.T) {
	r := newWindowRing(time.Second, 4)
	base := time.Unix(2000, 0)
	r.add(base.Add(2*time.Second), r.epochOf(base.Add(2*time.Second)), 0)
	// Merging "as of" base must not see the future slot.
	if got := r.merged(r.epochOf(base), 4)[0]; got != 0 {
		t.Fatalf("future slot visible in past merge: got %d", got)
	}
}
