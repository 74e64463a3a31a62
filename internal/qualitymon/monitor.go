// Monitor is the live aggregation point: serve, scanfarm, and the
// router feed scored events in; drift scores, online confusion, SLO
// burn rates, and the alert state machine come out — through the
// telemetry registry, the /debug/quality JSON endpoint, and trace-store
// drift events. A nil *Monitor is a valid disabled monitor: every
// method no-ops, so call sites thread it unconditionally. Its own
// observers follow the same idiom one level down: Options.Metrics and
// Options.Tracer are handed over at construction and may be nil.

package qualitymon

import (
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/telemetry"
	"github.com/golitho/hsd/internal/trace"
)

// Event is one scored clip as seen by a tap point.
type Event struct {
	Detector  string
	Stage     string // "primary", "fallback", "scan", router stage names
	Score     float64
	Threshold float64 // the detector's hot cut, for verdict + low-confidence margin
	// Clip is the scored geometry (canonical form preferred); HasClip
	// gates the spot-checker and low-confidence tap, which both need it.
	Clip    layout.Clip
	HasClip bool
}

// LowConfidenceTap receives (fingerprint, clip, score, stage) for
// every observed event whose score lands within LowConfMargin of the
// detector's threshold — the sensor feed the active-learning data
// engine (internal/datengine) mines. The clip is the event's geometry
// so the tap can journal a labelable candidate, not just a key. It is
// called synchronously from Observe on whatever goroutine scored the
// clip, so implementations must be concurrency-safe and fast; sampling
// decisions should key on the fingerprint (content-addressed,
// order-independent), never on arrival order.
type LowConfidenceTap func(fp layout.Fingerprint, clip layout.Clip, score float64, stage string)

// SpotMissTap receives every spot-check where the shadow oracle
// disagreed with the model — the highest-value mining signal the
// monitor produces, since a miss is a *confirmed* labeling error, not
// just uncertainty. Called from the spot-check worker goroutine (or
// inline in sync mode); implementations must be concurrency-safe.
type SpotMissTap func(clip layout.Clip, predicted, actual bool)

// Options configures a Monitor. The zero value gets sane defaults from
// New.
type Options struct {
	Clock Clock // nil = wall clock

	// SubWindow is the sliding-window rotation granularity; FastSubs
	// and SlowSubs are the fast/slow window lengths in sub-windows.
	// Defaults: 10s sub-windows, fast = 3 (30s), slow = 18 (3m).
	SubWindow time.Duration
	FastSubs  int
	SlowSubs  int

	// Bins is the sketch resolution for series without a baseline
	// (baseline entries carry their own edges). Default 20.
	Bins int

	// DriftThreshold is the PSI at which a series is drifting hard
	// enough to page (warning at half). Default 0.25, the conventional
	// "significant shift" PSI cut.
	DriftThreshold float64

	// SLOTarget is the good-event fraction objective (e.g. 0.99).
	// Fast-window burn >= pageBurn pages, slow-window burn >= 1 raises
	// warning. Values outside (0, 1) disable burn alerting.
	SLOTarget float64

	// ClearHold is how long the alert inputs must stay below a level
	// before the state steps down (hysteresis; default 2*SubWindow).
	ClearHold time.Duration

	// SpotCheckRate is the fraction of scored clips rescored by the
	// shadow oracle, selected deterministically by content fingerprint
	// (0 disables). Oracle is the ground-truth scorer (lithosim).
	SpotCheckRate float64
	Oracle        func(layout.Clip) (bool, error)
	// SyncSpotChecks runs checks inline for deterministic tests and
	// CLI scans; otherwise they queue behind one background worker.
	SyncSpotChecks bool

	// LowConfMargin enables the low-confidence tap for scores within
	// the margin of the threshold (0 disables).
	LowConfMargin    float64
	LowConfidenceTap LowConfidenceTap
	// SpotMissTap, when non-nil, receives spot-check mismatches (needs
	// an Oracle and SpotCheckRate > 0 to ever fire).
	SpotMissTap SpotMissTap

	// Metrics exports the monitor's gauges and counters (see
	// exportMetrics for the series; nil: not exported).
	Metrics *telemetry.Registry
	// Tracer receives drift events as "quality.drift" root spans flagged
	// degraded, so tail sampling always retains them (nil: none).
	Tracer *trace.Tracer

	Logf func(format string, args ...any) // nil = silent
}

// seriesKey identifies one (detector, stage) sketch.
type seriesKey struct{ detector, stage string }

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

// qmMetrics are the event-time counter handles, resolved once in New
// (nil handles when Options.Metrics is nil).
type qmMetrics struct {
	spotChecks     *telemetry.Counter
	spotMismatches *telemetry.Counter
	spotErrors     *telemetry.Counter
	spotDropped    *telemetry.Counter
	driftEvents    *telemetry.Counter
}

// Monitor aggregates quality signals. All exported methods are safe for
// concurrent use; a nil receiver disables everything.
type Monitor struct {
	opts  Options
	clock Clock
	mets  qmMetrics

	mu       sync.Mutex
	sketches map[seriesKey]*sketch
	conf     *windowRing // confusion counters: tp, fp, tn, fn
	slo      *windowRing // slo counters: good, bad
	// alert state machine: upgrades are immediate, downgrades wait out
	// ClearHold below the current level.
	alertState int
	belowSince time.Time // zero = inputs currently at/above alertState

	// cumulative spot-check counters (mirrored by the telemetry
	// counters in mets).
	spotSampled, spotDropped, spotErrors, spotMismatch atomic.Int64

	spotq   chan spotJob
	pending atomic.Int64 // queued + running spot checks, for Drain
	wg      sync.WaitGroup
	closed  atomic.Bool
}

const (
	confTP = iota
	confFP
	confTN
	confFN
	confWidth
)

const (
	sloGood = iota
	sloBad
	sloWidth
)

// New builds a Monitor, applying defaults for zero Options fields, and
// starts the spot-check worker when an oracle is configured in async
// mode. Call Close to stop the worker.
func New(opts Options) *Monitor {
	if opts.Clock == nil {
		opts.Clock = realClock{}
	}
	if opts.SubWindow <= 0 {
		opts.SubWindow = 10 * time.Second
	}
	if opts.FastSubs <= 0 {
		opts.FastSubs = 3
	}
	if opts.SlowSubs <= 0 {
		opts.SlowSubs = 18
	}
	if opts.SlowSubs < opts.FastSubs {
		opts.SlowSubs = opts.FastSubs
	}
	if opts.Bins <= 0 {
		opts.Bins = 20
	}
	if opts.DriftThreshold <= 0 {
		opts.DriftThreshold = 0.25
	}
	if opts.ClearHold <= 0 {
		opts.ClearHold = 2 * opts.SubWindow
	}
	m := &Monitor{
		opts:     opts,
		clock:    opts.Clock,
		sketches: make(map[seriesKey]*sketch),
		conf:     newWindowRing(opts.SubWindow, opts.SlowSubs, confWidth),
		slo:      newWindowRing(opts.SubWindow, opts.SlowSubs, sloWidth),
	}
	m.exportMetrics(opts.Metrics)
	if opts.Oracle != nil && opts.SpotCheckRate > 0 && !opts.SyncSpotChecks {
		m.spotq = make(chan spotJob, spotQueue)
		m.wg.Add(1)
		go m.spotWorker()
	}
	return m
}

// Close stops the spot-check worker and waits for in-flight checks.
func (m *Monitor) Close() {
	if m == nil || !m.closed.CompareAndSwap(false, true) {
		return
	}
	if m.spotq != nil {
		close(m.spotq)
	}
	m.wg.Wait()
}

func (m *Monitor) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, args...)
	}
}

// Observe records one scored clip: bins the score into the (detector,
// stage) sketch, hands low-confidence events to the tap, and samples
// the spot-checker. The hot-path cost with all extras disabled is one
// mutex plus one binary search and an integer add.
func (m *Monitor) Observe(ev Event) {
	if m == nil {
		return
	}
	at := m.clock.Now()
	k := seriesKey{ev.Detector, ev.Stage}
	m.mu.Lock()
	sk, ok := m.sketches[k]
	if !ok {
		sk = newSketch(defaultEdges(m.opts.Bins), m.opts.SubWindow, m.opts.SlowSubs)
		m.sketches[k] = sk
	}
	sk.observe(ev.Score, at, sk.ring.epochOf(at))
	m.mu.Unlock()

	if !ev.HasClip {
		return
	}
	var fp layout.Fingerprint
	haveFP := false
	if tap := m.opts.LowConfidenceTap; tap != nil && m.opts.LowConfMargin > 0 {
		if d := ev.Score - ev.Threshold; d <= m.opts.LowConfMargin && d >= -m.opts.LowConfMargin {
			fp = ev.Clip.Fingerprint()
			haveFP = true
			tap(fp, ev.Clip, ev.Score, ev.Stage)
		}
	}
	if m.opts.Oracle != nil && m.opts.SpotCheckRate > 0 {
		if !haveFP {
			fp = ev.Clip.Fingerprint()
		}
		if sampleFingerprint(fp, m.opts.SpotCheckRate) {
			m.enqueueSpot(spotJob{clip: ev.Clip, predicted: ev.Score >= ev.Threshold, at: at})
		}
	}
}

// ReportServeOutcome feeds the SLO window from the serving path: ok is
// whether the primary answered within its deadline (a degraded or
// failed request spends error budget even before the oracle weighs in).
func (m *Monitor) ReportServeOutcome(ok bool) {
	if m == nil {
		return
	}
	m.addSLO(m.clock.Now(), ok)
}

func (m *Monitor) addSLO(at time.Time, good bool) {
	idx := sloBad
	if good {
		idx = sloGood
	}
	m.mu.Lock()
	m.slo.add(at, m.slo.epochOf(m.clock.Now()), idx, 1)
	m.mu.Unlock()
}

// Reset clears all live windows — called by the registry when a new
// model generation swaps in (or is rolled back), so the old model's
// traffic never counts against the new one. Installed baselines and
// cumulative counters survive; InstallBaseline replaces the reference
// when the new generation ships its own sidecar. The alert state is
// deliberately NOT zeroed: it steps down through the state machine's
// ClearHold hysteresis once the inputs actually look healthy, so a
// rollback clears a page only by demonstrating clean traffic.
func (m *Monitor) Reset() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, sk := range m.sketches {
		sk.ring.reset()
		sk.over = false
	}
	m.conf.reset()
	m.slo.reset()
}

// InstallBaseline makes b the drift reference: existing baselines are
// dropped, and any series whose bin edges differ from its entry is
// rebuilt on the entry's edges (resetting its window, which is what a
// model change means anyway).
func (m *Monitor) InstallBaseline(b *Baseline) {
	if m == nil || b == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, sk := range m.sketches {
		sk.baseline = nil
	}
	for _, e := range b.Entries {
		k := seriesKey{e.Detector, e.Stage}
		sk, ok := m.sketches[k]
		if !ok || !equalEdges(sk.edges, e.Edges) {
			sk = newSketch(e.Edges, m.opts.SubWindow, m.opts.SlowSubs)
			m.sketches[k] = sk
		}
		sk.baseline = append([]int64(nil), e.Counts...)
	}
}

// InstallBaselineSidecar loads the quality baseline persisted next to
// modelPath (see SidecarPath) and installs it. A missing sidecar is
// normal (logged, not an error): the model predates quality baselines
// or the trainer skipped -quality-baseline.
func (m *Monitor) InstallBaselineSidecar(modelPath string) {
	if m == nil {
		return
	}
	path := SidecarPath(modelPath)
	if _, err := os.Stat(path); err != nil {
		m.logf("qualitymon: no baseline sidecar at %s", path)
		return
	}
	b, err := LoadBaselineFile(path)
	if err != nil {
		m.logf("qualitymon: %v", err)
		return
	}
	m.InstallBaseline(b)
	m.logf("qualitymon: installed baseline %s (%d series)", path, len(b.Entries))
}

func equalEdges(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// exportMetrics exports the monitor through reg:
//
//	hotspot_drift_score{detector,stage}      gauge  PSI, fast window vs baseline
//	hotspot_drift_max_bin_kl{detector,stage} gauge  worst single-bin KL term
//	hotspot_online_recall                    gauge  spot-check recall, slow window
//	hotspot_online_false_alarm               gauge  spot-check false-alarm rate
//	hotspot_slo_burn_rate{window}            gauge  fast/slow burn multiple
//	hotspot_quality_alert_state              gauge  0 ok, 1 warning, 2 page
//	hotspot_spot_checks_total                counter sampled clips sent to the oracle
//	hotspot_spot_check_mismatches_total      counter oracle disagreed with the model
//	hotspot_spot_checks_dropped_total        counter queue-full drops
//	hotspot_spot_check_errors_total          counter oracle failures
//	hotspot_quality_drift_events_total       counter drift threshold crossings
//
// Gauges refresh on every scrape via OnCollect (which also advances the
// alert state machine), so alerting needs no background poller.
func (m *Monitor) exportMetrics(reg *telemetry.Registry) {
	reg.SetHelp("hotspot_drift_score", "Population Stability Index of the live score distribution vs the training baseline, per detector and stage (fast window).")
	reg.SetHelp("hotspot_drift_max_bin_kl", "Largest single-bin KL contribution of live vs baseline score distribution.")
	reg.SetHelp("hotspot_online_recall", "Shadow-oracle spot-check recall over the slow window (0 when no checks).")
	reg.SetHelp("hotspot_online_false_alarm", "Shadow-oracle spot-check false-alarm rate over the slow window.")
	reg.SetHelp("hotspot_slo_burn_rate", "Error-budget burn-rate multiple per alert window (1 = burning exactly the budget).")
	reg.SetHelp("hotspot_quality_alert_state", "Quality alert state machine: 0 ok, 1 warning, 2 page.")
	reg.SetHelp("hotspot_spot_checks_total", "Clips sampled for shadow-oracle rescoring.")
	reg.SetHelp("hotspot_spot_check_mismatches_total", "Spot checks where the oracle verdict disagreed with the model's.")
	reg.SetHelp("hotspot_spot_checks_dropped_total", "Spot checks dropped because the queue was full.")
	reg.SetHelp("hotspot_spot_check_errors_total", "Spot checks whose oracle simulation failed.")
	reg.SetHelp("hotspot_quality_drift_events_total", "Rising-edge drift threshold crossings (each also emits a quality.drift trace).")
	m.mets = qmMetrics{
		spotChecks:     reg.Counter("hotspot_spot_checks_total"),
		spotMismatches: reg.Counter("hotspot_spot_check_mismatches_total"),
		spotErrors:     reg.Counter("hotspot_spot_check_errors_total"),
		spotDropped:    reg.Counter("hotspot_spot_checks_dropped_total"),
		driftEvents:    reg.Counter("hotspot_quality_drift_events_total"),
	}
	reg.OnCollect(func() {
		snap := m.Snapshot()
		for _, sk := range snap.Sketches {
			ls := []telemetry.Label{telemetry.L("detector", sk.Detector), telemetry.L("stage", sk.Stage)}
			reg.Gauge("hotspot_drift_score", ls...).Set(sk.PSI)
			reg.Gauge("hotspot_drift_max_bin_kl", ls...).Set(sk.MaxBinKL)
		}
		reg.Gauge("hotspot_online_recall").Set(snap.SpotCheck.Recall)
		reg.Gauge("hotspot_online_false_alarm").Set(snap.SpotCheck.FalseAlarm)
		reg.Gauge("hotspot_slo_burn_rate", telemetry.L("window", "fast")).Set(snap.SLO.BurnFast)
		reg.Gauge("hotspot_slo_burn_rate", telemetry.L("window", "slow")).Set(snap.SLO.BurnSlow)
		reg.Gauge("hotspot_quality_alert_state").Set(float64(snap.Alert.State))
	})
}
