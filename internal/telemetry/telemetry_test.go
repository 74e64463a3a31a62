package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(2.5)
	c.Add(-10) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	c.AddDuration(500 * time.Millisecond)
	if got := c.Value(); got != 4 {
		t.Fatalf("counter after AddDuration = %v, want 4", got)
	}

	var g Gauge
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
}

// TestHistogramBucketBoundaries pins the le semantics: an observation
// equal to an upper bound lands in that bucket (le is inclusive), and
// values above every bound land only in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 2.0001, 5, 100} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	// Cumulative: <=1 holds {0.5, 1}; <=2 adds {1.5, 2}; <=5 adds
	// {2.0001, 5}; +Inf adds {100}.
	wantCum := []int64{2, 4, 6}
	for i, want := range wantCum {
		if snap.Counts[i] != want {
			t.Errorf("bucket le=%v count = %d, want %d", snap.UpperBounds[i], snap.Counts[i], want)
		}
	}
	if snap.Count != 7 {
		t.Errorf("count = %d, want 7", snap.Count)
	}
	if want := 0.5 + 1 + 1.5 + 2 + 2.0001 + 5 + 100; snap.Sum != want {
		t.Errorf("sum = %v, want %v", snap.Sum, want)
	}
}

func TestHistogramUnsortedBucketsSorted(t *testing.T) {
	h := newHistogram([]float64{5, 1, 2})
	h.Observe(1.5)
	snap := h.Snapshot()
	if snap.UpperBounds[0] != 1 || snap.UpperBounds[2] != 5 {
		t.Fatalf("bounds not sorted: %v", snap.UpperBounds)
	}
	if snap.Counts[0] != 0 || snap.Counts[1] != 1 {
		t.Fatalf("counts = %v", snap.Counts)
	}
}

// TestConcurrentIncrements exercises every metric type from many
// goroutines; run under -race this is the data-race check for the
// atomic implementations.
func TestConcurrentIncrements(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ops_total")
	g := reg.Gauge("inflight")
	h := reg.Histogram("latency_seconds", []float64{0.01, 0.1, 1})

	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				h.Observe(0.05)
				g.Dec()
				// Get-or-create from other goroutines must return the
				// same instance.
				reg.Counter("ops_total").Add(1)
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != 2*workers*perWorker {
		t.Fatalf("counter = %v, want %d", got, 2*workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %v, want 0", got)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestRegistryGetOrCreateByLabels(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("req_total", L("endpoint", "/score"))
	b := reg.Counter("req_total", L("endpoint", "/verify"))
	if a == b {
		t.Fatal("distinct label sets returned the same counter")
	}
	// Label order must not distinguish series.
	c := reg.Counter("multi", L("a", "1"), L("b", "2"))
	d := reg.Counter("multi", L("b", "2"), L("a", "1"))
	if c != d {
		t.Fatal("label order created a second series")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	reg.Gauge("x")
}

// TestWritePrometheusGolden pins the exact text rendering.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.SetHelp("http_requests_total", "Requests by endpoint.")
	reg.Counter("http_requests_total", L("endpoint", "/score")).Add(3)
	reg.Counter("http_requests_total", L("endpoint", "/verify")).Add(1)
	reg.Gauge("inflight").Set(2)
	h := reg.Histogram("latency_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP http_requests_total Requests by endpoint.
# TYPE http_requests_total counter
http_requests_total{endpoint="/score"} 3
http_requests_total{endpoint="/verify"} 1
# TYPE inflight gauge
inflight 2
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.1"} 1
latency_seconds_bucket{le="1"} 2
latency_seconds_bucket{le="+Inf"} 3
latency_seconds_sum 2.55
latency_seconds_count 3
`
	if got := b.String(); got != want {
		t.Fatalf("rendering mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a").Add(2)
	reg.Histogram("h", []float64{1}).Observe(0.5)
	snaps := reg.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("len = %d", len(snaps))
	}
	if snaps[0].Name != "a" || snaps[0].Kind != "counter" || snaps[0].Value != 2 {
		t.Fatalf("first = %+v", snaps[0])
	}
	if snaps[1].Histogram == nil || snaps[1].Histogram.Count != 1 {
		t.Fatalf("second = %+v", snaps[1])
	}
}

// The OnCollect concurrency contract: registration, scrapes, and metric
// writes from inside hooks may all race freely. Each hook runs
// serialized (never concurrently with itself or another hook), so the
// unsynchronized counter inside the hook closure must never trip the
// race detector, and a hook registered mid-scrape joins a later pass
// without corrupting the current one. Run with -race to enforce.
func TestOnCollectConcurrentWithScrapes(t *testing.T) {
	reg := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writers: register hooks continuously. Each hook keeps
	// unsynchronized local state, which the contract permits.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				passes := 0 // deliberately unsynchronized hook-local state
				g := reg.Gauge("collector_passes",
					L("owner", string(rune('a'+w))))
				reg.OnCollect(func() {
					passes++
					g.Set(float64(passes))
				})
				if i >= 16 {
					return
				}
			}
		}(w)
	}
	// Readers: scrape continuously while hooks are being registered.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var b strings.Builder
				if err := reg.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
				_ = reg.Snapshot()
			}
		}()
	}
	wg.Wait()
	close(stop)

	// Every registered hook must have run on the final scrape exactly
	// once: the per-owner gauge equals that hook's pass count, and one
	// more scrape advances each by exactly one.
	before := collectGauges(reg, "collector_passes")
	after := collectGauges(reg, "collector_passes")
	if len(before) != len(after) || len(after) == 0 {
		t.Fatalf("gauge series changed across scrapes: %v vs %v", before, after)
	}
	for k, v := range after {
		if v <= before[k] {
			t.Fatalf("hook %s did not advance: before %v after %v", k, before[k], v)
		}
	}
}

// collectGauges scrapes reg and sums the named gauge per label set.
func collectGauges(reg *Registry, name string) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range reg.Snapshot() {
		if s.Name != name {
			continue
		}
		key := ""
		for _, l := range s.Labels {
			key += l.Key + "=" + l.Value + ";"
		}
		out[key] += s.Value
	}
	return out
}

// TestNilRegistryAndInstrumentsAreNoOps: telemetry is switched off by
// handing over a nil registry. Every method of a nil *Registry and of
// the nil instruments it hands out is a no-op whose readers return
// zero, and none of it changes what a real registry renders.
func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	r.SetHelp("x_total", "help")
	r.OnCollect(func() { t.Error("collector ran on a nil registry") })
	RegisterRuntimeMetrics(r)
	c, g, h := r.Counter("x_total", L("k", "v")), r.Gauge("x"), r.Histogram("x_seconds", nil)
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry handed out instruments: %v %v %v", c, g, h)
	}
	c.Inc()
	c.Add(2)
	c.AddDuration(time.Second)
	g.Set(3)
	g.Add(1)
	g.Inc()
	g.Dec()
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil instruments read %v %v %v %v, want zeros", c.Value(), g.Value(), h.Count(), h.Sum())
	}
	if s := h.Snapshot(); s.Count != 0 || len(s.Counts) != 0 {
		t.Fatalf("nil histogram snapshot = %+v, want empty", s)
	}
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", snap)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry rendered %q, err %v", sb.String(), err)
	}

	real := NewRegistry()
	real.SetHelp("x_total", "help")
	real.Counter("x_total", L("k", "v")).Inc()
	sb.Reset()
	if err := real.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := "# HELP x_total help\n# TYPE x_total counter\nx_total{k=\"v\"} 1\n"; sb.String() != want {
		t.Fatalf("real registry rendered\n%s\nwant\n%s", sb.String(), want)
	}
}
