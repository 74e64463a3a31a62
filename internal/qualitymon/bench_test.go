package qualitymon

import (
	"testing"
)

// The monitor-overhead pair: the per-event cost of a live monitor with
// spot checks and the tap off vs the nil-monitor fast path every tap
// point ships with. The first is what every served answer pays under
// -quality alone, the second what it pays with monitoring off; both
// must stay negligible.

func BenchmarkMonitorObserve(b *testing.B) {
	m := New(Options{Clock: newFakeClock()})
	defer m.Close()
	ev := Event{Stage: "primary", Score: 0.42, Threshold: 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(ev)
	}
}

func BenchmarkMonitorObserveDisabled(b *testing.B) {
	var m *Monitor
	ev := Event{Stage: "primary", Score: 0.42, Threshold: 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(ev)
	}
}

func BenchmarkMonitorSnapshot(b *testing.B) {
	m := New(Options{Clock: newFakeClock()})
	defer m.Close()
	for i := 0; i < 1000; i++ {
		m.ReportServeOutcome(0, i%100 != 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Snapshot()
	}
}
