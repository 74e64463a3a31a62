package qualitymon

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"github.com/golitho/hsd/internal/layout"
)

// The worker-count determinism property: feeding an identical event
// multiset through 1..8 concurrent workers must produce byte-identical
// /debug/quality JSON.
// This is the property that makes the monitor trustworthy under the
// batched serve path, where arrival order is whatever the scheduler
// felt like. It holds because the spot-checker samples clips by content
// fingerprint, never by arrival order, and the window ring's counters
// are commutative integers keyed by event timestamp.

// buildEvents is the shared deterministic workload: both stages, a
// spread of scores, clips for the spot-check path.
func buildEvents() []Event {
	var evs []Event
	for i := 0; i < 400; i++ {
		ev := Event{
			Stage: "primary",
			Score: float64(i%97) / 97, Threshold: 0.5,
			Clip: testClip(i),
		}
		if i%3 == 2 {
			ev.Stage = "fallback"
		}
		evs = append(evs, ev)
	}
	return evs
}

// runWorkers pushes the events through n goroutines, interleaved, and
// returns the monitor's snapshot JSON.
func runWorkers(t *testing.T, n int) []byte {
	t.Helper()
	clk := newFakeClock()
	opts := testMonitorOpts(clk)
	opts.SpotCheckRate = 0.5
	opts.Oracle = func(_ context.Context, c layout.Clip) (bool, error) { return c.Shapes[0].Dx()%2 == 0, nil }
	m := New(opts)
	defer m.Close()

	evs := buildEvents()
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Strided assignment: each worker gets a different
			// interleaved subset, so orderings genuinely differ by n.
			for i := w; i < len(evs); i += n {
				m.Observe(evs[i])
				if i%5 == 0 {
					m.ReportServeOutcome(0, i%10 != 0)
				}
			}
		}(w)
	}
	wg.Wait()
	if !m.DrainSpotChecks(10 * time.Second) {
		t.Fatal("spot checks did not drain")
	}
	clk.Advance(time.Second) // same snapshot instant for every n
	snap := m.Snapshot()
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
	return raw
}

func TestSnapshotDeterministicAcrossWorkerCounts(t *testing.T) {
	want := runWorkers(t, 1)
	for n := 2; n <= 8; n++ {
		got := runWorkers(t, n)
		if string(got) != string(want) {
			t.Fatalf("snapshot differs at %d workers:\n1: %s\n%d: %s", n, want, n, got)
		}
	}
}

// The same property repeated across seeds of interleaving: shuffling
// which worker sees which event (not just the stride) must not matter.
func TestSnapshotDeterministicUnderReassignment(t *testing.T) {
	base := runWorkers(t, 4)
	// A different but equally valid schedule: reverse the event list.
	clk := newFakeClock()
	opts := testMonitorOpts(clk)
	opts.SpotCheckRate = 0.5
	opts.Oracle = func(_ context.Context, c layout.Clip) (bool, error) { return c.Shapes[0].Dx()%2 == 0, nil }
	m := New(opts)
	defer m.Close()
	evs := buildEvents()
	for i := len(evs) - 1; i >= 0; i-- {
		m.Observe(evs[i])
		if i%5 == 0 {
			m.ReportServeOutcome(0, i%10 != 0)
		}
	}
	if !m.DrainSpotChecks(10 * time.Second) {
		t.Fatal("spot checks did not drain")
	}
	clk.Advance(time.Second)
	raw, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(base) {
		t.Fatalf("snapshot depends on event order:\nfwd: %s\nrev: %s", base, raw)
	}
}
