package qualitymon

import (
	"testing"
)

// The monitor-overhead pair: the per-event cost of a live monitor vs the
// nil-monitor fast path every tap point ships with. The disabled cost
// is what every request pays when quality monitoring is off, so it must
// stay negligible (the ci gate holds the scan-path regression at 2%).

func BenchmarkMonitorObserve(b *testing.B) {
	m := New(Options{Clock: newFakeClock()})
	defer m.Close()
	ev := Event{Detector: "MLP", Stage: "primary", Score: 0.42, Threshold: 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(ev)
	}
}

func BenchmarkMonitorObserveDisabled(b *testing.B) {
	var m *Monitor
	ev := Event{Detector: "MLP", Stage: "primary", Score: 0.42, Threshold: 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(ev)
	}
}

func BenchmarkMonitorSnapshot(b *testing.B) {
	m := New(Options{Clock: newFakeClock()})
	defer m.Close()
	m.InstallBaseline(testBaseline())
	for i := 0; i < 1000; i++ {
		m.Observe(Event{Detector: "MLP", Stage: "primary", Score: float64(i%100) / 100})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Snapshot()
	}
}
