// Package router implements an EPIC-style meta-classifier over the
// detector zoo: a cascade of detectors ordered cheap→expensive, with a
// calibrated logistic stacker deciding after each stage whether the
// accumulated evidence is confident enough to answer or the clip must
// escalate. The pattern matcher and boost answer the easy majority in
// microseconds; the SVM/CNN tail only sees the uncertain band, so the
// cascade's ODST approaches the cheap detectors' while its accuracy
// approaches the deep one's.
//
// Routing equivalence contract (pinned by property tests):
//
//  1. A stage only answers when its calibrated confidence clears the
//     band AND its own thresholded verdict agrees, so the verdict the
//     router reports for any clip is bit-identical to the verdict of
//     the stage that answered it, for every band setting.
//  2. With every non-final band forced to AlwaysEscalate the router's
//     predictions reduce exactly to the final (deep) detector's — same
//     confusion matrix on any evaluation set.
//
// The router is a first-class core.Detector: scan workers share the
// one fitted instance, it batch-scores stage-wise over the
// still-active subset, and its Score is a deterministic pure
// function of the clip — so scanfarm journals, the clip cache, and
// kill-resume scans behave exactly as they do for any other detector.
package router

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/telemetry"
	"github.com/golitho/hsd/internal/trace"
)

var errNotFitted = errors.New("router: not fitted")

// Stage is one rung of the cascade: a named detector, cheapest first.
type Stage struct {
	Name     string
	Detector core.Detector
}

// calibFraction of the training set is held out (deterministic
// stratified split) to fit the stackers and bands.
const calibFraction = 0.25

// Config parameterizes router fitting.
type Config struct {
	// MaxStageError is the answered-error budget per stage: each band
	// is the widest pair of cut points whose answered clips stay at or
	// below this empirical error rate on the calibration split
	// (default 0.02).
	MaxStageError float64
	// Seed drives the stacker training.
	Seed int64
	// Augment is applied to the member-fit split only, never the
	// calibration split — bands must be fitted on the real class
	// balance, not the upsampled one.
	Augment core.AugmentConfig
	// ForceBand, when non-nil, overrides every fitted non-final band —
	// the CLI threshold flags and the always-escalate equivalence mode.
	ForceBand *Band
}

func (c *Config) normalize() {
	if c.MaxStageError <= 0 {
		c.MaxStageError = 0.02
	}
}

// Decision is the full routing outcome for one clip.
type Decision struct {
	// Stage is the index of the answering stage; StageName its name.
	Stage     int
	StageName string
	// Hotspot is the answering stage's own thresholded verdict.
	Hotspot bool
	// Confidence is the calibrated stacker probability at the
	// answering stage.
	Confidence float64
	// Score is the router score: Confidence clamped onto the Hotspot
	// side of the 0.5 threshold, so Score >= Threshold() == Hotspot.
	Score float64
}

// StageStats is a point-in-time snapshot of one stage's routing
// counters.
type StageStats struct {
	Name         string
	AnsweredHot  int64
	AnsweredCold int64
	Escalated    int64
	// Seconds is cumulative wall time spent scoring in this stage.
	Seconds float64
}

// Answered is the total clips this stage answered.
func (s StageStats) Answered() int64 { return s.AnsweredHot + s.AnsweredCold }

// stageCounters are the live atomic counters behind StageStats: one
// routing history per router, however many goroutines score through
// it. They never feed back into scores, so routed scans stay
// byte-deterministic.
type stageCounters struct {
	answeredHot  atomic.Int64
	answeredCold atomic.Int64
	escalated    atomic.Int64
	nanos        atomic.Int64
}

// Hooks are the router's optional observers. Both may be nil, neither
// feeds back into a score (routed scans stay byte-deterministic), and
// both run on whatever goroutine is scoring, so OnDecision must be
// concurrency-safe and fast.
type Hooks struct {
	// Metrics receives the per-stage series:
	//
	//	hotspot_router_stage_total{stage,outcome}  clips per stage by
	//	    outcome (answered_hot / answered_cold / escalated)
	//	router_stage_seconds{stage}                scoring latency
	Metrics *telemetry.Registry
	// OnDecision observes every answered routing decision with the clip
	// it answered, exactly once per scored clip. Quality monitoring keeps
	// per-stage sketches of d.Confidence under d.StageName. The decisions
	// whose d.Stage is the final stage are the escalation band: clips
	// every cheaper stage's uncertainty band refused to answer, which is
	// where the calibrated cascade was least sure and what the
	// active-learning data engine (internal/datengine) mines.
	OnDecision func(d Decision, clip layout.Clip)
}

// stageMetrics are one stage's telemetry series (nil handles without
// Hooks.Metrics).
type stageMetrics struct {
	hot, cold, esc *telemetry.Counter
	sec            *telemetry.Histogram
}

// Router routes clips through the staged cascade. Configure (ForceBand,
// SetMaxStageError, SetHooks) and Fit before scoring; after Fit it
// follows core.Detector's concurrency contract like its members, so
// scans and servers share the one instance and nothing is set again.
type Router struct {
	name   string
	stages []Stage
	cfg    Config
	cals   []Calibration
	fitted bool

	counters []stageCounters
	mets     []stageMetrics
	hooks    Hooks
}

// New builds an unfitted router over stages (cheapest first; the final
// stage is the escalation anchor and always answers).
func New(name string, stages []Stage, cfg Config) *Router {
	cfg.normalize()
	if name == "" {
		name = "Router"
	}
	return &Router{
		name:     name,
		stages:   stages,
		cfg:      cfg,
		counters: make([]stageCounters, len(stages)),
		mets:     make([]stageMetrics, len(stages)),
	}
}

var (
	_ core.Detector       = (*Router)(nil)
	_ core.CtxScorer      = (*Router)(nil)
	_ core.CtxBatchScorer = (*Router)(nil)
	_ core.CtxFitter      = (*Router)(nil)
)

// Name implements core.Detector.
func (r *Router) Name() string { return r.name }

// Threshold implements core.Detector: router scores are calibrated
// probabilities clamped to the verdict side of 0.5.
func (r *Router) Threshold() float64 { return 0.5 }

// Stages returns the cascade's stage list.
func (r *Router) Stages() []Stage { return r.stages }

// ForceBand overrides every non-final fitted band with b. Call before
// Fit (the CLI threshold flags route through here).
func (r *Router) ForceBand(b Band) { r.cfg.ForceBand = &b }

// SetMaxStageError overrides the per-stage answered-error budget used
// by the next Fit. Non-positive values are ignored.
func (r *Router) SetMaxStageError(eps float64) {
	if eps > 0 {
		r.cfg.MaxStageError = eps
	}
}

// SetHooks installs the router's observers. Call before Fit, or at
// least before the router is shared: the hooks are plain fields.
func (r *Router) SetHooks(h Hooks) {
	r.hooks = h
	reg := h.Metrics
	reg.SetHelp("hotspot_router_stage_total",
		"Clips routed per cascade stage, by outcome (answered_hot, answered_cold, escalated).")
	reg.SetHelp("router_stage_seconds",
		"Wall-clock scoring latency per cascade stage.")
	for i, st := range r.stages {
		stage := telemetry.L("stage", st.Name)
		r.mets[i] = stageMetrics{
			hot:  reg.Counter("hotspot_router_stage_total", stage, telemetry.L("outcome", "answered_hot")),
			cold: reg.Counter("hotspot_router_stage_total", stage, telemetry.L("outcome", "answered_cold")),
			esc:  reg.Counter("hotspot_router_stage_total", stage, telemetry.L("outcome", "escalated")),
			sec:  reg.Histogram("router_stage_seconds", stageSecondsBuckets, stage),
		}
	}
}

// SetCalibrations installs externally built calibrations and marks the
// router fitted. The member detectors must already be fitted by the
// caller. Used by tests and by callers that persist calibration state.
func (r *Router) SetCalibrations(cals []Calibration) error {
	if len(cals) != len(r.stages) {
		return fmt.Errorf("router: %d calibrations for %d stages", len(cals), len(r.stages))
	}
	r.cals = cals
	r.fitted = true
	return nil
}

// Fit implements core.Detector.
func (r *Router) Fit(train []core.LabeledClip) error {
	return r.FitCtx(context.Background(), train)
}

// FitCtx implements core.CtxFitter: the member fits run through their
// own context-aware paths (checkpoint spans, cooperative interruption),
// then the calibration pass runs under a router.calibrate span.
func (r *Router) FitCtx(ctx context.Context, train []core.LabeledClip) error {
	if len(r.stages) == 0 {
		return errors.New("router: no stages")
	}
	if len(train) == 0 {
		return errors.New("router: empty training set")
	}
	fitSet, calibSet := stratifiedSplit(train, calibFraction)
	if len(fitSet) == 0 {
		fitSet = train
	}
	if len(calibSet) == 0 {
		calibSet = train
	}
	fitSet = core.AugmentMinority(fitSet, r.cfg.Augment)
	for i, st := range r.stages {
		if err := core.FitClipsCtx(ctx, st.Detector, fitSet); err != nil {
			return fmt.Errorf("router: fit stage %d (%s): %w", i, st.Name, err)
		}
	}

	ctx, sp := trace.Start(ctx, "router.calibrate",
		trace.A("router", r.name))
	defer sp.End()
	sp.SetAttrInt("calib_clips", len(calibSet))

	clips := make([]layout.Clip, len(calibSet))
	labels := make([]int, len(calibSet))
	for i, s := range calibSet {
		clips[i] = s.Clip
		if s.Hotspot {
			labels[i] = 1
		}
	}
	scores := make([][]float64, len(r.stages))
	for i, st := range r.stages {
		s, err := core.ScoreClipsCtx(ctx, st.Detector, clips)
		if err != nil {
			sp.SetError(err)
			return fmt.Errorf("router: calibrate stage %d (%s): %w", i, st.Name, err)
		}
		scores[i] = s
	}
	cals, err := calibrate(scores, labels, r.cfg)
	if err != nil {
		sp.SetError(err)
		return err
	}
	if r.cfg.ForceBand != nil {
		for i := range cals[:len(cals)-1] {
			cals[i].Band = *r.cfg.ForceBand
		}
	}
	r.cals = cals
	r.fitted = true
	return nil
}

// decide applies the routing rule at one stage. The verdict is the
// stage detector's own raw thresholded call; the band only governs
// whether that verdict is confident enough to answer. Lo is checked
// before Hi so overlapping bands stay deterministic.
func decide(last bool, p float64, verdict bool, band Band) (hot, answered bool) {
	if last {
		return verdict, true
	}
	if p <= band.Lo && !verdict {
		return false, true
	}
	if p >= band.Hi && verdict {
		return true, true
	}
	return false, false
}

// encode clamps the calibrated confidence onto the verdict side of the
// 0.5 threshold, so core.Predict over the router reproduces the
// answering stage's raw verdict bit-for-bit. A non-finite confidence
// degrades to the boundary value for its verdict.
func encode(p float64, hot bool) float64 {
	if hot {
		if p >= 0.5 && !math.IsNaN(p) {
			return p
		}
		return 0.5
	}
	if p < 0.5 {
		return p
	}
	return math.Nextafter(0.5, 0)
}

// note records one routing outcome into the counters and the stage's
// telemetry, attributing dt of scoring time to stage i.
func (r *Router) note(i int, hot, answered bool, dt time.Duration) {
	c, m := &r.counters[i], &r.mets[i]
	c.nanos.Add(int64(dt))
	switch {
	case !answered:
		c.escalated.Add(1)
		m.esc.Inc()
	case hot:
		c.answeredHot.Add(1)
		m.hot.Inc()
	default:
		c.answeredCold.Add(1)
		m.cold.Inc()
	}
	if dt > 0 {
		m.sec.ObserveDuration(dt)
	}
}

// settle applies stage i's routing rule to one clip, given the clip's
// stage scores so far (the last is stage i's own) and the scoring time
// dt to charge: calibrate, decide, count, and on an answer encode the
// decision and show it to the hook. It is the one per-clip step of
// single and batch routing alike.
func (r *Router) settle(i int, scores []float64, clip layout.Clip, dt time.Duration) (Decision, bool) {
	st := r.stages[i]
	last := i == len(r.stages)-1
	p := r.cals[i].prob(scores)
	verdict := scores[len(scores)-1] >= st.Detector.Threshold()
	hot, answered := decide(last, p, verdict, r.cals[i].Band)
	r.note(i, hot, answered, dt)
	if !answered {
		return Decision{}, false
	}
	d := Decision{
		Stage:      i,
		StageName:  st.Name,
		Hotspot:    hot,
		Confidence: p,
		Score:      encode(p, hot),
	}
	if r.hooks.OnDecision != nil {
		r.hooks.OnDecision(d, clip)
	}
	return d, true
}

// RouteCtx scores one clip through the cascade, with stage spans on the
// context's trace, and returns the full routing decision.
func (r *Router) RouteCtx(ctx context.Context, clip layout.Clip) (Decision, error) {
	if !r.fitted {
		return Decision{}, errNotFitted
	}
	scores := make([]float64, 0, len(r.stages))
	for i, st := range r.stages {
		t0 := time.Now()
		s, err := core.ScoreClipCtx(ctx, st.Detector, clip)
		dt := time.Since(t0)
		if err != nil {
			return Decision{}, fmt.Errorf("router: stage %d (%s): %w", i, st.Name, err)
		}
		scores = append(scores, s)
		if d, answered := r.settle(i, scores, clip, dt); answered {
			return d, nil
		}
	}
	return Decision{}, errors.New("router: no stage answered")
}

// Score implements core.Detector.
func (r *Router) Score(clip layout.Clip) (float64, error) {
	return r.ScoreCtx(context.Background(), clip)
}

// ScoreCtx implements core.CtxScorer.
func (r *Router) ScoreCtx(ctx context.Context, clip layout.Clip) (float64, error) {
	d, err := r.RouteCtx(ctx, clip)
	return d.Score, err
}

// ScoreBatchCtx implements core.CtxBatchScorer: stage-wise batching
// over the still-active subset, bit-identical per clip to Score.
func (r *Router) ScoreBatchCtx(ctx context.Context, clips []layout.Clip) ([]float64, error) {
	if !r.fitted {
		return nil, errNotFitted
	}
	out := make([]float64, len(clips))
	scores := make([][]float64, len(clips))
	active := make([]int, len(clips))
	for i := range active {
		active[i] = i
	}
	for i, st := range r.stages {
		if len(active) == 0 {
			break
		}
		sub := make([]layout.Clip, len(active))
		for k, idx := range active {
			sub[k] = clips[idx]
		}
		t0 := time.Now()
		s, err := core.ScoreClipsCtx(ctx, st.Detector, sub)
		// Per-clip time attribution inside a batch is not observable;
		// charge each clip an equal share of the batch's stage time.
		dt := time.Since(t0) / time.Duration(len(active))
		if err != nil {
			return nil, fmt.Errorf("router: stage %d (%s): %w", i, st.Name, err)
		}
		var next []int
		for k, idx := range active {
			scores[idx] = append(scores[idx], s[k])
			if d, answered := r.settle(i, scores[idx], clips[idx], dt); answered {
				out[idx] = d.Score
			} else {
				next = append(next, idx)
			}
		}
		active = next
	}
	return out, nil
}

// Stats snapshots the per-stage routing counters.
func (r *Router) Stats() []StageStats {
	out := make([]StageStats, len(r.stages))
	for i, st := range r.stages {
		c := &r.counters[i]
		out[i] = StageStats{
			Name:         st.Name,
			AnsweredHot:  c.answeredHot.Load(),
			AnsweredCold: c.answeredCold.Load(),
			Escalated:    c.escalated.Load(),
			Seconds:      float64(c.nanos.Load()) / 1e9,
		}
	}
	return out
}

// stageSecondsBuckets span microsecond pattern-match hits to second-
// scale CNN escalations.
var stageSecondsBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10,
}
