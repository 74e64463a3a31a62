// Monitor is the live aggregation point: the server feeds scored events
// and serve outcomes in; online confusion (from spot checks), SLO burn
// rates and the alert state machine (from serve outcomes only) come out
// — through the telemetry registry and the /debug/quality JSON
// endpoint. A nil *Monitor is a valid disabled
// monitor: every method no-ops, so call sites thread it
// unconditionally. Its own observer follows the same idiom one level
// down: Options.Metrics is handed over at construction and may be nil.

package qualitymon

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/resilience"
	"github.com/golitho/hsd/internal/telemetry"
)

// Event is one scored clip as seen by a tap point.
type Event struct {
	Stage     string // "primary" or "fallback"
	Score     float64
	Threshold float64 // the detector's hot cut, for verdict + low-confidence margin
	// Clip is the scored geometry (canonical form preferred), which the
	// spot-checker and the low-confidence tap both need.
	Clip layout.Clip
}

// LowConfidenceTap receives (clip, score, stage) for every observed
// event whose score lands within LowConfMargin of the detector's
// threshold — the sensor feed the active-learning data engine
// (internal/datengine) mines. The clip is the event's geometry so the
// tap can journal a labelable candidate, not just a key. It is called
// synchronously from Observe on whatever goroutine scored the clip, so
// implementations must be concurrency-safe and fast; sampling decisions
// should key on the clip's fingerprint (content-addressed,
// order-independent), never on arrival order.
type LowConfidenceTap func(clip layout.Clip, score float64, stage string)

// SpotMissTap receives every spot-check where the shadow oracle
// disagreed with the model — the highest-value mining signal the
// monitor produces, since a miss is a *confirmed* labeling error, not
// just uncertainty. Called from the spot-check worker goroutine;
// implementations must be concurrency-safe.
type SpotMissTap func(clip layout.Clip, predicted, actual bool)

// Options configures a Monitor. The zero value gets sane defaults from
// New.
type Options struct {
	Clock resilience.Clock // nil = resilience.Real, the wall clock

	// SubWindow is the sliding-window rotation granularity (default
	// 10s): the fast window is fastSubs of them (30s at the default),
	// the slow one slowSubs (3m).
	SubWindow time.Duration

	// SLOTarget is the good-event fraction objective (e.g. 0.99). Its
	// events are serve outcomes only: a primary answer within its
	// deadline is good, a primary failure bad. Fast-window burn >=
	// pageBurn pages, slow-window burn >= 1 raises warning. Values
	// outside (0, 1) disable alerting.
	SLOTarget float64

	// SpotCheckRate is the fraction of scored clips rescored by the
	// shadow oracle, selected deterministically by content fingerprint
	// (0 disables); a verdict feeds the confusion cells, the counters
	// and SpotMissTap, never the SLO. Oracle is the ground-truth scorer
	// (lithosim's LabelCtx), the signature datengine.Config.Oracle has
	// too; checks queue behind one background worker, which calls it
	// through lithosim.Verify.
	SpotCheckRate float64
	Oracle        func(ctx context.Context, clip layout.Clip) (bool, error)

	// LowConfMargin enables the low-confidence tap for scores within
	// the margin of the threshold (0 disables).
	LowConfMargin    float64
	LowConfidenceTap LowConfidenceTap
	// SpotMissTap, when non-nil, receives spot-check mismatches (needs
	// an Oracle and SpotCheckRate > 0 to ever fire).
	SpotMissTap SpotMissTap

	// Metrics exports the monitor's gauges and counters (see
	// exportMetrics for the series); nil means a private registry, so
	// the spot-check counters that Snapshot reports always have a home.
	Metrics *telemetry.Registry

	Logf func(format string, args ...any) // nil = silent
}

// Window lengths in sub-windows and alert hysteresis.
const (
	fastSubs = 3
	slowSubs = 18
	// clearHoldSubs is how many sub-windows the alert inputs must stay
	// below a level before the state steps down.
	clearHoldSubs = 2
)

// alert state machine levels, exported through
// hotspot_quality_alert_state and /debug/quality.
const (
	AlertOK      = 0
	AlertWarning = 1
	AlertPage    = 2
)

func alertName(s int) string {
	switch s {
	case AlertWarning:
		return "warning"
	case AlertPage:
		return "page"
	default:
		return "ok"
	}
}

// qmMetrics are the event-time counter handles, resolved once in New:
// the one home of the cumulative spot-check totals.
type qmMetrics struct {
	spotChecks     *telemetry.Counter
	spotMismatches *telemetry.Counter
	spotErrors     *telemetry.Counter
	spotDropped    *telemetry.Counter
}

// Monitor aggregates quality signals. All exported methods are safe for
// concurrent use; a nil receiver disables everything.
type Monitor struct {
	opts  Options
	clock resilience.Clock
	mets  qmMetrics

	mu  sync.Mutex
	win *windowRing // spot-check confusion and SLO events
	// gen counts Resets; a spot check carries the generation it was
	// sampled in, and a serve outcome the one its model was served in.
	// Written under mu, read by Observe without it.
	gen atomic.Uint64
	// alert state machine: upgrades are immediate, downgrades wait out
	// clearHoldSubs sub-windows below the current level.
	alertState int
	belowSince time.Time // zero = inputs currently at/above alertState

	spotq   chan spotJob // nil unless this monitor samples spot checks
	pending atomic.Int64 // queued + running spot checks, for Drain
	wg      sync.WaitGroup
	closed  atomic.Bool
	qmu     sync.Mutex // orders each send on spotq before Close closes it
}

// New builds a Monitor, applying defaults for zero Options fields, and
// starts the spot-check worker when an oracle is configured. Call Close
// to stop the worker.
func New(opts Options) *Monitor {
	if opts.Clock == nil {
		opts.Clock = resilience.Real
	}
	if opts.SubWindow <= 0 {
		opts.SubWindow = 10 * time.Second
	}
	if opts.Metrics == nil {
		opts.Metrics = telemetry.NewRegistry()
	}
	m := &Monitor{
		opts:  opts,
		clock: opts.Clock,
		win:   newWindowRing(opts.SubWindow, slowSubs),
	}
	m.exportMetrics(opts.Metrics)
	if opts.Oracle != nil && opts.SpotCheckRate > 0 {
		m.spotq = make(chan spotJob, spotQueue)
		m.wg.Add(1)
		go m.spotWorker()
	}
	return m
}

// Close stops the spot-check worker and waits for the checks already
// queued; a clip sampled after Close counts as a dropped check.
func (m *Monitor) Close() {
	if m == nil || !m.closed.CompareAndSwap(false, true) {
		return
	}
	if m.spotq != nil {
		m.qmu.Lock()
		close(m.spotq)
		m.qmu.Unlock()
	}
	m.wg.Wait()
}

func (m *Monitor) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, args...)
	}
}

// Observe records one scored clip: hands a low-confidence event to the
// tap and samples the spot-checker. With both off it returns at once,
// taking no lock.
func (m *Monitor) Observe(ev Event) {
	if m == nil {
		return
	}
	if tap := m.opts.LowConfidenceTap; tap != nil && m.opts.LowConfMargin > 0 {
		if d := ev.Score - ev.Threshold; d <= m.opts.LowConfMargin && d >= -m.opts.LowConfMargin {
			tap(ev.Clip, ev.Score, ev.Stage)
		}
	}
	if m.spotq != nil && sampleFingerprint(ev.Clip.Fingerprint(), m.opts.SpotCheckRate) {
		m.enqueueSpot(spotJob{clip: ev.Clip, predicted: ev.Score >= ev.Threshold, at: m.clock.Now(), gen: m.gen.Load()})
	}
}

// ReportServeOutcome feeds the SLO window from the serving path, its one
// source of events: ok is whether the primary answered within its
// deadline (a degraded or failed request spends error budget). gen is
// what the Reset that started the serving model's windows returned; an
// outcome of a model that a later Reset replaced is dropped.
func (m *Monitor) ReportServeOutcome(gen uint64, ok bool) {
	if m == nil {
		return
	}
	idx := sloBad
	if ok {
		idx = sloGood
	}
	at := m.clock.Now()
	m.mu.Lock()
	if gen == m.gen.Load() {
		m.win.add(at, m.win.epochOf(at), idx)
	}
	m.mu.Unlock()
}

// Reset clears all live windows — called by the server when a new
// model generation swaps in (or is rolled back), so the old model's
// traffic never counts against the new one: a spot check sampled before
// Reset and still queued or running skips the window when it lands, and
// so does a serve outcome reported with an earlier Reset's generation.
// It returns the new generation, which the new model's serve outcomes
// carry (0 on a nil Monitor).
// Cumulative counters survive, and so does the miss tap's feed. The
// alert state is deliberately NOT zeroed: it steps down through the
// state machine's clear-hold hysteresis once the inputs actually look
// healthy, so a rollback clears a page only by demonstrating clean
// traffic.
func (m *Monitor) Reset() uint64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.win.reset()
	return m.gen.Add(1)
}

// exportMetrics exports the monitor through reg:
//
//	hotspot_online_recall                    gauge  spot-check recall, slow window
//	hotspot_online_false_alarm               gauge  spot-check false-alarm rate
//	hotspot_slo_burn_rate{window}            gauge  fast/slow burn multiple
//	hotspot_quality_alert_state              gauge  0 ok, 1 warning, 2 page
//	hotspot_spot_checks_total                counter sampled clips sent to the oracle
//	hotspot_spot_check_mismatches_total      counter oracle disagreed with the model
//	hotspot_spot_checks_dropped_total        counter queue-full drops
//	hotspot_spot_check_errors_total          counter oracle failures
//
// Gauges refresh on every scrape via OnCollect (which also advances the
// alert state machine), so alerting needs no background poller.
func (m *Monitor) exportMetrics(reg *telemetry.Registry) {
	reg.SetHelp("hotspot_online_recall", "Shadow-oracle spot-check recall over the slow window (0 when no checks).")
	reg.SetHelp("hotspot_online_false_alarm", "Shadow-oracle spot-check false-alarm rate over the slow window.")
	reg.SetHelp("hotspot_slo_burn_rate", "Error-budget burn-rate multiple per alert window (1 = burning exactly the budget).")
	reg.SetHelp("hotspot_quality_alert_state", "Quality alert state machine: 0 ok, 1 warning, 2 page.")
	reg.SetHelp("hotspot_spot_checks_total", "Clips sampled for shadow-oracle rescoring.")
	reg.SetHelp("hotspot_spot_check_mismatches_total", "Spot checks where the oracle verdict disagreed with the model's.")
	reg.SetHelp("hotspot_spot_checks_dropped_total", "Spot checks dropped because the queue was full.")
	reg.SetHelp("hotspot_spot_check_errors_total", "Spot checks whose oracle simulation failed.")
	m.mets = qmMetrics{
		spotChecks:     reg.Counter("hotspot_spot_checks_total"),
		spotMismatches: reg.Counter("hotspot_spot_check_mismatches_total"),
		spotErrors:     reg.Counter("hotspot_spot_check_errors_total"),
		spotDropped:    reg.Counter("hotspot_spot_checks_dropped_total"),
	}
	reg.OnCollect(func() {
		snap := m.Snapshot()
		reg.Gauge("hotspot_online_recall").Set(snap.SpotCheck.Window.Recall)
		reg.Gauge("hotspot_online_false_alarm").Set(snap.SpotCheck.Window.FalseAlarm)
		reg.Gauge("hotspot_slo_burn_rate", telemetry.L("window", "fast")).Set(snap.SLO.BurnFast)
		reg.Gauge("hotspot_slo_burn_rate", telemetry.L("window", "slow")).Set(snap.SLO.BurnSlow)
		reg.Gauge("hotspot_quality_alert_state").Set(float64(snap.Alert.State))
	})
}
