// Package trace is a dependency-free, allocation-conscious span tracer
// for the hotspot-detection stack. It decomposes the paper's headline
// ODST metric (overall detection simulation time) from one opaque number
// into a per-stage budget: every scored request or scanned window becomes
// a trace whose child spans attribute time to rasterization, feature
// extraction, neural inference, and lithography-simulation corners.
//
// Spans are carried through context.Context. A request (or scan window,
// or benchmark run) starts a root span; downstream stages start child
// spans from the same context. When the root span ends, the completed
// trace is handed to a lock-sharded ring-buffer store under a tail
// sampling policy: traces flagged slow, errored, degraded, shed, or
// panicked are always retained, the rest are sampled at a configured
// rate. Tail sampling — deciding after the trace is complete — is what
// guarantees the interesting 0.1% is never lost while normal traffic
// stays cheap to keep.
//
// Tracing is zero-cost when disabled: Start on a context without an
// enabled tracer performs two context lookups and returns a nil span,
// and every Span method is a nil-receiver no-op, so instrumented hot
// paths need no conditional plumbing.
//
// Like internal/resilience, the tracer takes an injectable clock so
// span timing and slow-trace classification are testable without
// wall-clock sleeps.
package trace

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/golitho/hsd/internal/telemetry"
)

// Clock abstracts time for span timestamps. resilience.Clock satisfies
// it, so tests can drive tracing and breakers from one fake clock.
type Clock interface {
	Now() time.Time
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// TraceID identifies one trace (a tree of spans).
type TraceID uint64

// String renders the id as fixed-width hex, the form the HTTP debug
// endpoints accept.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// ParseTraceID parses the hex form produced by TraceID.String.
func ParseTraceID(s string) (TraceID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad trace id %q: %w", s, err)
	}
	return TraceID(v), nil
}

// SpanID identifies one span within a trace.
type SpanID uint64

// String renders the id as fixed-width hex.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// Flag marks a trace as belonging to a tail-sampling class that is
// always retained.
type Flag uint32

// Retention classes. A trace carrying any flag bypasses probabilistic
// sampling.
const (
	// FlagSlow is set automatically when the root span's duration
	// reaches Config.SlowThreshold.
	FlagSlow Flag = 1 << iota
	// FlagError marks traces whose request failed (5xx, scoring error).
	FlagError
	// FlagDegraded marks traces answered by the fallback detector or
	// rejected by an open breaker.
	FlagDegraded
	// FlagShed marks traces rejected by admission control.
	FlagShed
	// FlagPanic marks traces that recovered a panic.
	FlagPanic
)

// flagNames orders flags for rendering.
var flagNames = []struct {
	f    Flag
	name string
}{
	{FlagSlow, "slow"},
	{FlagError, "error"},
	{FlagDegraded, "degraded"},
	{FlagShed, "shed"},
	{FlagPanic, "panic"},
}

// Names expands a flag set into its lower-case names.
func (f Flag) Names() []string {
	var out []string
	for _, fn := range flagNames {
		if f&fn.f != 0 {
			out = append(out, fn.name)
		}
	}
	return out
}

// Attr is one key=value annotation on a span or event.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// A is shorthand for Attr{k, v}.
func A(k, v string) Attr { return Attr{Key: k, Value: v} }

// Event is a point-in-time annotation within a span (a decision, not a
// duration): "breaker-open", "shed", "batch-joined".
type Event struct {
	Name  string    `json:"name"`
	Time  time.Time `json:"time"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// Span is one timed stage of a trace. A span is owned by the goroutine
// that started it; concurrent stages (scan workers, corner workers)
// each start their own span from a shared parent context. All methods
// are nil-receiver no-ops so disabled tracing costs nothing at call
// sites.
type Span struct {
	tr   *Tracer
	data *traceData

	traceID  TraceID
	id       SpanID
	parentID SpanID
	name     string
	start    time.Time
	attrs    []Attr
	events   []Event
	errMsg   string
}

// TraceID returns the id of the trace this span belongs to (0 for nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return 0
	}
	return s.traceID
}

// ID returns the span id (0 for nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// SetAttr annotates the span.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: k, Value: v})
}

// SetAttrInt annotates the span with an integer value.
func (s *Span) SetAttrInt(k string, v int) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: k, Value: strconv.Itoa(v)})
}

// AddEvent records a point-in-time annotation.
func (s *Span) AddEvent(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.events = append(s.events, Event{Name: name, Time: s.tr.now(), Attrs: attrs})
}

// SetError records err on the span and flags the whole trace for tail
// retention. A nil error is ignored.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.errMsg = err.Error()
	s.data.setFlag(FlagError)
}

// SetFlag marks the span's trace with a tail-retention class.
func (s *Span) SetFlag(f Flag) {
	if s == nil {
		return
	}
	s.data.setFlag(f)
}

// End completes the span. Ending the root span finalizes the trace and
// submits it to the store under the tail-sampling policy; child spans
// that end after the root (e.g. an abandoned primary scoring goroutine
// finishing past its deadline) are dropped.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.tr.now()
	s.tr.observeStage(s.name, end.Sub(s.start))
	s.data.endSpan(s, end)
}

// traceData accumulates the ended spans of one in-flight trace.
type traceData struct {
	tr   *Tracer
	id   TraceID
	root SpanID

	mu        sync.Mutex
	spans     []SpanRecord
	flags     Flag
	finalized bool
}

func (d *traceData) setFlag(f Flag) {
	d.mu.Lock()
	d.flags |= f
	d.mu.Unlock()
}

func (d *traceData) endSpan(s *Span, end time.Time) {
	rec := SpanRecord{
		SpanID:   s.id.String(),
		ParentID: "",
		Name:     s.name,
		Start:    s.start,
		Duration: end.Sub(s.start),
		Attrs:    s.attrs,
		Events:   s.events,
		Error:    s.errMsg,
	}
	if s.parentID != 0 {
		rec.ParentID = s.parentID.String()
	}
	d.mu.Lock()
	if d.finalized {
		// Late child of an already-finished trace (background work that
		// outlived its request): nothing to attach it to.
		d.mu.Unlock()
		return
	}
	d.spans = append(d.spans, rec)
	if s.id == d.root {
		d.finalized = true
		spans := d.spans
		flags := d.flags
		d.mu.Unlock()
		d.tr.finish(d.id, rec, spans, flags)
		return
	}
	d.mu.Unlock()
}

// Config tunes a Tracer. The zero value is usable: keep everything,
// default capacity, wall clock.
type Config struct {
	// Capacity is how many finished traces the ring store retains
	// (default 256). Oldest traces are evicted per shard.
	Capacity int
	// Shards is the number of store shards (default 8, rounded up to a
	// power of two).
	Shards int
	// SampleRate is the probability an unflagged trace is retained
	// ((0, 1], out-of-range values mean 1). Flagged traces are always
	// retained regardless of the rate.
	SampleRate float64
	// SlowThreshold flags traces whose root span lasts at least this
	// long. Zero disables the slow class.
	SlowThreshold time.Duration
	// Clock drives span timestamps (default the wall clock).
	Clock Clock
	// Rand is the sampling coin ([0,1) variate); injectable so tail
	// sampling is deterministic in tests. Default math/rand.
	Rand func() float64
	// Metrics receives a per-stage span-duration histogram
	// hotspot_stage_seconds{stage=<span name>}, so ODST decomposes
	// directly in /metrics, and the sampler's two counters (nil: none).
	Metrics *telemetry.Registry
}

// Tracer creates spans and retains finished traces. Safe for concurrent
// use.
type Tracer struct {
	cfg     Config
	enabled atomic.Bool
	nextID  atomic.Uint64

	shards    []storeShard
	shardMask uint64

	kept    atomic.Int64
	sampled atomic.Int64 // unflagged traces dropped by the sampler

	stageMu sync.Mutex
	stages  map[string]*telemetry.Histogram
}

// New constructs an enabled Tracer.
func New(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 256
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	shards := 1
	for shards < cfg.Shards {
		shards <<= 1
	}
	if cfg.SampleRate <= 0 || cfg.SampleRate > 1 {
		cfg.SampleRate = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	if cfg.Rand == nil {
		rng := rand.New(rand.NewSource(cfg.Clock.Now().UnixNano()))
		var mu sync.Mutex
		cfg.Rand = func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return rng.Float64()
		}
	}
	per := (cfg.Capacity + shards - 1) / shards
	if per < 1 {
		per = 1
	}
	t := &Tracer{
		cfg:       cfg,
		shards:    make([]storeShard, shards),
		shardMask: uint64(shards - 1),
		stages:    make(map[string]*telemetry.Histogram),
	}
	for i := range t.shards {
		t.shards[i].ring = make([]*TraceRecord, per)
	}
	t.nextID.Store(uint64(cfg.Clock.Now().UnixNano()))
	t.enabled.Store(true)
	cfg.Metrics.SetHelp("hotspot_stage_seconds",
		"Span durations per pipeline stage: the ODST decomposition.")
	cfg.Metrics.SetHelp("traces_retained_total", "Traces kept by the tail sampler.")
	cfg.Metrics.SetHelp("traces_sampled_out_total", "Unflagged traces dropped by probabilistic sampling.")
	return t
}

// SetEnabled toggles the tracer at runtime. While disabled, Start
// returns nil spans and running traces are abandoned on completion.
func (t *Tracer) SetEnabled(v bool) {
	if t != nil {
		t.enabled.Store(v)
	}
}

// Disabled reports whether the tracer is off (or nil): one atomic load,
// no allocations — the fast path guarding every instrumentation site.
func (t *Tracer) Disabled() bool {
	return t == nil || !t.enabled.Load()
}

// Stats reports tail-sampling outcomes since construction.
type Stats struct {
	// Kept is how many finished traces entered the store.
	Kept int64
	// SampledOut is how many unflagged traces the sampler dropped.
	SampledOut int64
}

// Stats returns cumulative sampling counters.
func (t *Tracer) Stats() Stats {
	return Stats{Kept: t.kept.Load(), SampledOut: t.sampled.Load()}
}

func (t *Tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.cfg.Clock.Now()
}

func (t *Tracer) newID() uint64 {
	// Sequential ids seeded from the clock: unique within a process
	// lifetime, cheap, and stable enough for debug endpoints.
	return t.nextID.Add(1)
}

// observeStage feeds the per-stage duration histogram, creating the
// series on first use. Handles are cached so the steady-state cost is
// one mutex-guarded map read plus the histogram's atomic adds.
func (t *Tracer) observeStage(stage string, d time.Duration) {
	if t.cfg.Metrics == nil {
		return // not left to the nil histogram: every span end would take stageMu
	}
	t.stageMu.Lock()
	h, ok := t.stages[stage]
	if !ok {
		h = t.cfg.Metrics.Histogram("hotspot_stage_seconds", nil, telemetry.L("stage", stage))
		t.stages[stage] = h
	}
	t.stageMu.Unlock()
	h.ObserveDuration(d)
}

// finish applies tail sampling to a completed trace and stores it when
// retained.
func (t *Tracer) finish(id TraceID, root SpanRecord, spans []SpanRecord, flags Flag) {
	if t.Disabled() {
		return
	}
	if t.cfg.SlowThreshold > 0 && root.Duration >= t.cfg.SlowThreshold {
		flags |= FlagSlow
	}
	if flags == 0 && t.cfg.Rand() >= t.cfg.SampleRate {
		t.sampled.Add(1)
		t.cfg.Metrics.Counter("traces_sampled_out_total").Inc()
		return
	}
	rec := &TraceRecord{
		TraceID:  id.String(),
		Root:     root.Name,
		Start:    root.Start,
		Duration: root.Duration,
		Flags:    flags.Names(),
		Spans:    spans,
	}
	t.kept.Add(1)
	t.cfg.Metrics.Counter("traces_retained_total").Inc()
	t.store(uint64(id), rec)
}
