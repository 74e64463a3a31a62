// Package telemetry provides dependency-free operational metrics for the
// hotspot-detection stack: atomic counters, gauges, and fixed-bucket
// latency histograms collected into a Registry that renders snapshots
// programmatically or in the Prometheus text exposition format.
//
// The paper's evaluation protocol treats ODST (overall detection
// simulation time) as a first-class metric next to accuracy and false
// alarms; this package is how the serving, scanning, simulation, and
// training layers report where that time goes. All metric types are safe
// for concurrent use and allocation-free on the hot path (a histogram
// observation is two atomic adds plus a branch-free bucket search).
//
// Telemetry is optional everywhere it is threaded, and the option is a
// nil pointer: every method of a nil *Registry, *Counter, *Gauge and
// *Histogram is a no-op (readers return zero), and a nil registry hands
// out nil instruments. A component therefore takes a *Registry in its
// config, resolves its instruments once at construction, and calls them
// unconditionally; an unobserved call costs one nil check.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency histogram bucket upper bounds in
// seconds, matching the Prometheus client convention so dashboards
// transfer directly.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// atomicFloat is a float64 updated with compare-and-swap on its bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		cur := math.Float64frombits(old)
		if f.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value. The zero value is ready to
// use; a nil *Counter discards.
type Counter struct{ v atomicFloat }

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds v; negative deltas are ignored to preserve monotonicity.
func (c *Counter) Add(v float64) {
	if c != nil && v > 0 {
		c.v.Add(v)
	}
}

// AddDuration adds d expressed in seconds.
func (c *Counter) AddDuration(d time.Duration) { c.Add(d.Seconds()) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. The zero value is ready to
// use; a nil *Gauge discards.
type Gauge struct{ v atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds v (may be negative).
func (g *Gauge) Add(v float64) {
	if g != nil {
		g.v.Add(v)
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed cumulative buckets. Construct
// through Registry.Histogram; the zero value is not usable, a nil
// *Histogram discards.
type Histogram struct {
	bounds []float64      // sorted upper bounds, exclusive of +Inf
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomicFloat
}

func newHistogram(buckets []float64) *Histogram {
	bounds := make([]float64, len(buckets))
	copy(bounds, buckets)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// HistogramSnapshot is a consistent-enough point-in-time view of a
// histogram (buckets are read individually; under concurrent writes the
// cumulative counts remain monotone).
type HistogramSnapshot struct {
	// UpperBounds are the bucket upper bounds; Counts[i] is the
	// cumulative count of observations <= UpperBounds[i]. The final
	// implicit +Inf bucket equals Count.
	UpperBounds []float64
	Counts      []int64
	Count       int64
	Sum         float64
}

// Snapshot captures cumulative bucket counts.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		UpperBounds: append([]float64(nil), h.bounds...),
		Counts:      make([]int64, len(h.bounds)),
		Sum:         h.Sum(),
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if i < len(s.Counts) {
			s.Counts[i] = cum
		}
	}
	s.Count = cum
	return s
}

// Label is one name="value" dimension of a metric series.
type Label struct{ Key, Value string }

// L is shorthand for Label{k, v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// metricKind discriminates series for TYPE lines and rendering.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered metric instance (name + label set).
type series struct {
	name   string
	labels []Label
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metrics. Metric constructors are get-or-create:
// requesting the same name and label set twice returns the same
// instance, so packages can re-derive handles instead of threading them.
// The zero value is not usable; use NewRegistry. A nil *Registry is the
// disabled registry: it records nothing and hands out nil instruments.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*series
	order []*series         // registration order for stable rendering
	help  map[string]string // metric name -> HELP text
	kinds map[string]metricKind

	collectMu sync.Mutex
	collect   []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byKey: make(map[string]*series),
		help:  make(map[string]string),
		kinds: make(map[string]metricKind),
	}
}

// SetHelp attaches a HELP line to every series of the named metric.
func (r *Registry) SetHelp(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
}

// OnCollect registers fn to run at the start of every Snapshot and
// WritePrometheus call, before the registry is read. Collectors refresh
// pull-style metrics (runtime stats, cache sizes) so scrapes always see
// current values without a background poller.
//
// Concurrency contract: OnCollect is safe to call concurrently with
// scrapes and with other OnCollect calls — registration and the
// collection pass serialize on one mutex, so a hook is never observed
// half-registered and never runs concurrently with itself or another
// hook (hooks may therefore keep unsynchronized local state, as the
// runtime collector does). A hook registered while a scrape is mid-pass
// joins the next pass, not the current one. Inside fn the registry's
// metric constructors and setters are allowed (they take the registry's
// data lock, which the collection pass does not hold), but Snapshot,
// WritePrometheus, and OnCollect itself would self-deadlock and must
// not be called.
func (r *Registry) OnCollect(fn func()) {
	if r == nil {
		return
	}
	r.collectMu.Lock()
	defer r.collectMu.Unlock()
	r.collect = append(r.collect, fn)
}

// runCollectors invokes the OnCollect hooks in registration order. It
// holds only collectMu, so hooks are free to touch metrics (which take
// mu); concurrent scrapes serialize their collection passes here.
func (r *Registry) runCollectors() {
	r.collectMu.Lock()
	defer r.collectMu.Unlock()
	for _, fn := range r.collect {
		fn()
	}
}

func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte(0)
		b.WriteString(l.Value)
	}
	return b.String()
}

// sortLabels returns a sorted copy so label order never distinguishes
// series.
func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func (r *Registry) getOrCreate(name string, kind metricKind, labels []Label, make func() *series) *series {
	labels = sortLabels(labels)
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byKey[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, s.kind, kind))
		}
		return s
	}
	if k, ok := r.kinds[name]; ok && k != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, k, kind))
	}
	s := make()
	s.name = name
	s.labels = labels
	s.kind = kind
	r.byKey[key] = s
	r.kinds[name] = kind
	r.order = append(r.order, s)
	return s
}

// Counter returns the counter for name and labels, creating it if needed.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	s := r.getOrCreate(name, kindCounter, labels, func() *series {
		return &series{counter: &Counter{}}
	})
	return s.counter
}

// Gauge returns the gauge for name and labels, creating it if needed.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	s := r.getOrCreate(name, kindGauge, labels, func() *series {
		return &series{gauge: &Gauge{}}
	})
	return s.gauge
}

// Histogram returns the histogram for name and labels, creating it with
// the given bucket bounds if needed (nil buckets means DefBuckets).
// Bucket bounds are fixed by the first registration.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	s := r.getOrCreate(name, kindHistogram, labels, func() *series {
		return &series{hist: newHistogram(buckets)}
	})
	return s.hist
}

// SeriesSnapshot is one metric series in a registry snapshot.
type SeriesSnapshot struct {
	Name   string
	Labels []Label
	Kind   string // "counter", "gauge", or "histogram"

	// Value holds counter/gauge values; for histograms see Histogram.
	Value     float64
	Histogram *HistogramSnapshot
}

// Snapshot returns every registered series in registration order,
// after refreshing any OnCollect collectors.
func (r *Registry) Snapshot() []SeriesSnapshot {
	if r == nil {
		return nil
	}
	r.runCollectors()
	r.mu.Lock()
	order := append([]*series(nil), r.order...)
	r.mu.Unlock()

	out := make([]SeriesSnapshot, 0, len(order))
	for _, s := range order {
		snap := SeriesSnapshot{
			Name:   s.name,
			Labels: append([]Label(nil), s.labels...),
			Kind:   s.kind.String(),
		}
		switch s.kind {
		case kindCounter:
			snap.Value = s.counter.Value()
		case kindGauge:
			snap.Value = s.gauge.Value()
		case kindHistogram:
			h := s.hist.Snapshot()
			snap.Histogram = &h
		}
		out = append(out, snap)
	}
	return out
}

// formatValue renders floats the way Prometheus clients do: integers
// without a decimal point, +Inf for infinity.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func labelString(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4). Series of the same metric name are grouped
// under one TYPE/HELP header; output is deterministic given a quiescent
// registry: metrics appear in first-registration order, series sorted by
// label string within a metric.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.runCollectors()
	r.mu.Lock()
	order := append([]*series(nil), r.order...)
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	// Group series by metric name, keeping first-registration order of
	// names.
	var names []string
	byName := make(map[string][]*series)
	for _, s := range order {
		if _, ok := byName[s.name]; !ok {
			names = append(names, s.name)
		}
		byName[s.name] = append(byName[s.name], s)
	}

	var b strings.Builder
	for _, name := range names {
		group := byName[name]
		sort.Slice(group, func(i, j int) bool {
			return labelString(group[i].labels) < labelString(group[j].labels)
		})
		if h := help[name]; h != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, h)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, group[0].kind)
		for _, s := range group {
			switch s.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %s\n", name, labelString(s.labels), formatValue(s.counter.Value()))
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", name, labelString(s.labels), formatValue(s.gauge.Value()))
			case kindHistogram:
				snap := s.hist.Snapshot()
				for i, ub := range snap.UpperBounds {
					fmt.Fprintf(&b, "%s_bucket%s %d\n",
						name, labelString(s.labels, L("le", formatValue(ub))), snap.Counts[i])
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n",
					name, labelString(s.labels, L("le", "+Inf")), snap.Count)
				fmt.Fprintf(&b, "%s_sum%s %s\n", name, labelString(s.labels), formatValue(snap.Sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", name, labelString(s.labels), snap.Count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
