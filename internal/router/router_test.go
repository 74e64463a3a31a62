package router

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/golitho/hsd/internal/boost"
	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/features"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/iccad"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/metrics"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/pm"
	"github.com/golitho/hsd/internal/telemetry"
)

// funcDetector is a deterministic pure-function detector: the property
// tests need stage scores that are exact functions of the clip with no
// training state.
type funcDetector struct {
	name string
	thr  float64
	fn   func(layout.Clip) float64
}

func (d funcDetector) Name() string                 { return d.name }
func (d funcDetector) Fit([]core.LabeledClip) error { return nil }
func (d funcDetector) Threshold() float64           { return d.thr }
func (d funcDetector) Score(c layout.Clip) (float64, error) {
	return d.fn(c), nil
}

// errDetector fails every score with a fixed error.
type errDetector struct {
	funcDetector
	err error
}

func (d errDetector) Score(layout.Clip) (float64, error) { return 0, d.err }

// fakeStages builds a three-rung cascade of density-derived detectors:
// two noisy cheap stages and an oracle-quality final stage. All scores
// are deterministic pure functions of the clip.
func fakeStages() []Stage {
	noisy := func(freq float64) func(layout.Clip) float64 {
		return func(c layout.Clip) float64 {
			d := c.Density()
			return d + 0.3*math.Sin(freq*d)
		}
	}
	return []Stage{
		{Name: "cheap", Detector: funcDetector{name: "cheap", thr: 0.5, fn: noisy(37)}},
		{Name: "mid", Detector: funcDetector{name: "mid", thr: 0.45, fn: noisy(91)}},
		{Name: "deep", Detector: funcDetector{name: "deep", thr: 0.5, fn: func(c layout.Clip) float64 {
			return c.Density()
		}}},
	}
}

// fakeCals builds hand-made calibrations for a three-stage cascade with
// the given non-final bands; stacker weights average the stage scores.
func fakeCals(b0, b1 Band) []Calibration {
	mk := func(n int, b Band) Calibration {
		w := make([]float64, n)
		mean := make([]float64, n)
		inv := make([]float64, n)
		for i := range w {
			w[i] = 4.0 / float64(n)
			mean[i] = 0.5
			inv[i] = 1
		}
		return Calibration{Weights: w, Mean: mean, InvStd: inv, Band: b}
	}
	return []Calibration{mk(1, b0), mk(2, b1), mk(3, AlwaysEscalate)}
}

// testClips builds a deterministic set of clips whose densities spread
// over (0, 1) so every routing branch gets traffic.
func testClips(t *testing.T) []layout.Clip {
	t.Helper()
	l := layout.New("router-chip")
	var clips []layout.Clip
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			x, y := i*1024, j*1024
			edge := 64 + ((i*8+j)*900)/63
			if err := l.AddRect(geom.R(x, y, x+edge, y+edge)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			c, err := l.ClipAt(geom.Pt(i*1024+512, j*1024+512), 1024, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			clips = append(clips, c)
		}
	}
	return clips
}

func mustRouter(t *testing.T, b0, b1 Band) *Router {
	t.Helper()
	r := New("Router", fakeStages(), Config{})
	if err := r.SetCalibrations(fakeCals(b0, b1)); err != nil {
		t.Fatal(err)
	}
	return r
}

// routeByHand is an independent reimplementation of the routing rule,
// kept deliberately separate from decide() so a regression in either
// shows up as disagreement.
func routeByHand(r *Router, clip layout.Clip) (stage int, hot bool, p float64) {
	var scores []float64
	for i, st := range r.Stages() {
		s, _ := st.Detector.Score(clip)
		scores = append(scores, s)
		p = r.Calibrations()[i].prob(scores)
		verdict := s >= st.Detector.Threshold()
		if i == len(r.Stages())-1 {
			return i, verdict, p
		}
		b := r.Calibrations()[i].Band
		if p <= b.Lo && !verdict {
			return i, false, p
		}
		if p >= b.Hi && verdict {
			return i, true, p
		}
	}
	panic("unreachable")
}

// TestRouterEquivalenceProperty is the core routing-equivalence
// property: for ANY band setting, the verdict the router reports is
// bit-identical to the raw thresholded verdict of the stage that
// answered — including every clip escalated to the final stage, whose
// verdicts must match running that detector directly.
func TestRouterEquivalenceProperty(t *testing.T) {
	clips := testClips(t)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		randBand := func() Band {
			switch rng.Intn(4) {
			case 0:
				return AlwaysEscalate
			case 1: // inverted / overlapping on purpose
				return Band{Lo: rng.Float64(), Hi: rng.Float64()}
			default:
				lo := rng.Float64() * 0.6
				return Band{Lo: lo, Hi: lo + rng.Float64()*(1-lo)}
			}
		}
		r := mustRouter(t, randBand(), randBand())
		final := r.Stages()[len(r.Stages())-1].Detector
		for ci, clip := range clips {
			d, err := r.RouteCtx(context.Background(), clip)
			if err != nil {
				t.Fatalf("trial %d clip %d: %v", trial, ci, err)
			}
			// 1. Verdict == answering stage's raw thresholded verdict.
			raw, _ := r.Stages()[d.Stage].Detector.Score(clip)
			if want := raw >= r.Stages()[d.Stage].Detector.Threshold(); d.Hotspot != want {
				t.Fatalf("trial %d clip %d: verdict %v != stage %d raw verdict %v",
					trial, ci, d.Hotspot, d.Stage, want)
			}
			// 2. Score encodes the verdict through the Detector contract.
			if got := d.Score >= r.Threshold(); got != d.Hotspot {
				t.Fatalf("trial %d clip %d: Score %v encodes %v, verdict %v",
					trial, ci, d.Score, got, d.Hotspot)
			}
			// 3. Clips escalated to the end agree with the final
			// detector run directly.
			if d.Stage == len(r.Stages())-1 {
				direct, err := core.Predict(final, clip)
				if err != nil {
					t.Fatal(err)
				}
				if d.Hotspot != direct {
					t.Fatalf("trial %d clip %d: escalated verdict %v != direct %v",
						trial, ci, d.Hotspot, direct)
				}
			}
			// 4. The whole decision matches an independent replay.
			stage, hot, p := routeByHand(r, clip)
			if stage != d.Stage || hot != d.Hotspot || p != d.Confidence {
				t.Fatalf("trial %d clip %d: RouteCtx = (%d,%v,%v), replay = (%d,%v,%v)",
					trial, ci, d.Stage, d.Hotspot, d.Confidence, stage, hot, p)
			}
		}
	}
}

// TestRouterAlwaysEscalateMatchesFinal: with every band forced to
// AlwaysEscalate, the router's score-derived predictions reduce exactly
// to its final detector's — identical confusion matrix, identical
// routing (every clip reaches the last stage).
func TestRouterAlwaysEscalateMatchesFinal(t *testing.T) {
	clips := testClips(t)
	r := mustRouter(t, AlwaysEscalate, AlwaysEscalate)
	final := r.Stages()[len(r.Stages())-1].Detector
	var viaRouter, direct metrics.Confusion
	for i, clip := range clips {
		actual := i%3 == 0 // arbitrary labels; the matrices must agree cell-for-cell
		got, err := core.Predict(r, clip)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Predict(final, clip)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("clip %d: router %v != final detector %v", i, got, want)
		}
		viaRouter.Add(got, actual)
		direct.Add(want, actual)
	}
	if viaRouter != direct {
		t.Fatalf("confusion mismatch: router %+v, direct %+v", viaRouter, direct)
	}
	st := r.Stats()
	n := int64(len(clips))
	if st[0].Escalated != n || st[1].Escalated != n || st[2].Answered() != n {
		t.Fatalf("always-escalate routed wrong: %+v", st)
	}
}

// TestRouterTrainedAlwaysEscalate repeats the confusion-matrix
// equivalence with REAL trained detectors (pattern matcher, boost,
// neural net) on a generated suite: forcing escalation must reproduce
// the trained final stage's confusion matrix exactly on the test split.
func TestRouterTrainedAlwaysEscalate(t *testing.T) {
	train, test := routerSplits(t)
	force := AlwaysEscalate
	r := New("Router", realStages(), Config{
		Seed: 5, ForceBand: &force,
	})
	if err := r.Fit(train); err != nil {
		t.Fatal(err)
	}
	final := r.Stages()[len(r.Stages())-1].Detector
	var viaRouter, direct metrics.Confusion
	for _, s := range test {
		got, err := core.Predict(r, s.Clip)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Predict(final, s.Clip)
		if err != nil {
			t.Fatal(err)
		}
		viaRouter.Add(got, s.Hotspot)
		direct.Add(want, s.Hotspot)
	}
	if viaRouter != direct {
		t.Fatalf("trained always-escalate: router confusion %+v != final %+v",
			viaRouter, direct)
	}
}

// routerSuite is generated once and shared across the trained-router
// tests (suite generation and member training dominate the runtime).
var (
	routerSuiteOnce sync.Once
	routerSuite     *iccad.Suite
	routerSuiteErr  error
)

func routerSplits(t *testing.T) (train, test []core.LabeledClip) {
	t.Helper()
	routerSuiteOnce.Do(func() {
		cfg := iccad.SmallSuiteConfig(909)
		cfg.Specs = []iccad.Spec{{
			Name:    "R1",
			Style:   cfg.Specs[0].Style,
			TrainHS: 14, TrainNHS: 46,
			TestHS: 8, TestNHS: 30,
		}}
		routerSuite, routerSuiteErr = iccad.GenerateSuite(cfg)
	})
	if routerSuiteErr != nil {
		t.Fatal(routerSuiteErr)
	}
	b := routerSuite.Benchmarks[0]
	return core.FromSamples(b.Train.Samples), core.FromSamples(b.Test.Samples)
}

// realStages is a miniature version of the production cascade: pattern
// matcher, boosted stumps, and a small MLP (a NeuralDetector, so the
// CtxBatchScorer member path is exercised).
func realStages() []Stage {
	shallow := features.NewConcat(
		&features.GeomStats{},
		&features.Density{Grid: 32},
	)
	return []Stage{
		{Name: "pm", Detector: core.NewPMDetector(pmConfig())},
		{Name: "boost", Detector: core.NewBoostDetector(shallow, boostConfig())},
		{Name: "mlp", Detector: core.NewMLPDetector(shallow, []int{16}, nn.TrainConfig{
			Epochs: 8, BatchSize: 16, Seed: 7,
		})},
	}
}

// TestRouterTrainedRoutesAndAnswers: a fitted real-detector router must
// answer every test clip, route a nonzero share away from the final
// stage (the point of the cascade), and stay within a loose accuracy
// floor of its final detector.
func TestRouterTrainedRoutesAndAnswers(t *testing.T) {
	train, test := routerSplits(t)
	r := New("Router", realStages(), Config{Seed: 5, MaxStageError: 0.05})
	if err := r.Fit(train); err != nil {
		t.Fatal(err)
	}
	r.ResetStats()
	var conf metrics.Confusion
	for _, s := range test {
		got, err := core.Predict(r, s.Clip)
		if err != nil {
			t.Fatal(err)
		}
		conf.Add(got, s.Hotspot)
	}
	st := r.Stats()
	var answered int64
	for _, s := range st {
		answered += s.Answered()
	}
	if answered != int64(len(test)) {
		t.Fatalf("answered %d of %d clips: %+v", answered, len(test), st)
	}
	if st[len(st)-1].Answered() == int64(len(test)) {
		t.Fatalf("router escalated everything; cheap stages answered nothing: %+v", st)
	}
	t.Logf("routing: %+v, confusion: %+v", st, conf)
}

// TestRouterBatchBitIdentical: ScoreBatchCtx must return exactly the bits
// Score returns clip-by-clip, for arbitrary band settings.
func TestRouterBatchBitIdentical(t *testing.T) {
	clips := testClips(t)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		lo := rng.Float64() * 0.7
		b0 := Band{Lo: lo, Hi: lo + rng.Float64()*(1-lo)}
		lo = rng.Float64() * 0.7
		b1 := Band{Lo: lo, Hi: lo + rng.Float64()*(1-lo)}
		r := mustRouter(t, b0, b1)
		batch, err := r.ScoreBatchCtx(context.Background(), clips)
		if err != nil {
			t.Fatal(err)
		}
		for i, clip := range clips {
			s, err := r.Score(clip)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(s) != math.Float64bits(batch[i]) {
				t.Fatalf("trial %d clip %d: Score %v != ScoreBatchCtx %v", trial, i, s, batch[i])
			}
		}
	}
}

// observed is one decision the OnDecision hook saw.
type observed struct {
	d    Decision
	clip layout.Fingerprint
}

// recordDecisions hooks r (its metrics onto reg, which may be nil) and
// returns the multiset of decisions it shows the hook; read it only
// once scoring has finished.
func recordDecisions(r *Router, reg *telemetry.Registry) map[observed]int {
	var mu sync.Mutex
	calls := map[observed]int{}
	r.SetHooks(Hooks{Metrics: reg, OnDecision: func(d Decision, clip layout.Clip) {
		mu.Lock()
		defer mu.Unlock()
		calls[observed{d, clip.Fingerprint()}]++
	}})
	return calls
}

// escalated is the final-stage subset of a decision multiset, by clip:
// what the escalation band hands the data engine.
func escalated(r *Router, calls map[observed]int) map[layout.Fingerprint]int {
	out := map[layout.Fingerprint]int{}
	for o, n := range calls {
		if o.d.Stage == len(r.Stages())-1 {
			out[o.clip] += n
		}
	}
	return out
}

// TestRouterSingleBatchParity: single and batch routing run one settle
// step, so for the same clips and bands they give equal scores, equal
// routing counters and the same multiset of hooked decisions.
func TestRouterSingleBatchParity(t *testing.T) {
	clips := testClips(t)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		band := func() Band {
			if trial%5 == 0 {
				return AlwaysEscalate
			}
			lo := rng.Float64() * 0.7
			return Band{Lo: lo, Hi: lo + rng.Float64()*(1-lo)}
		}
		b0, b1 := band(), band()
		single, batch := mustRouter(t, b0, b1), mustRouter(t, b0, b1)
		singleTaps, batchTaps := recordDecisions(single, nil), recordDecisions(batch, nil)

		got, err := batch.ScoreBatchCtx(context.Background(), clips)
		if err != nil {
			t.Fatal(err)
		}
		for i, clip := range clips {
			d, err := single.RouteCtx(context.Background(), clip)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(d.Score) != math.Float64bits(got[i]) {
				t.Fatalf("trial %d clip %d: single %v, batch %v", trial, i, d.Score, got[i])
			}
		}
		ss, bs := single.Stats(), batch.Stats()
		for i := range ss {
			ss[i].Seconds, bs[i].Seconds = 0, 0 // wall time, not a routing outcome
		}
		if !reflect.DeepEqual(ss, bs) {
			t.Fatalf("trial %d: counters differ:\nsingle %+v\nbatch  %+v", trial, ss, bs)
		}
		if len(singleTaps) == 0 || !reflect.DeepEqual(singleTaps, batchTaps) {
			t.Fatalf("trial %d: hooked decisions differ: single %d distinct, batch %d distinct",
				trial, len(singleTaps), len(batchTaps))
		}
	}
}

// TestRouterTrainedBatchBitIdentical repeats batch equivalence with the
// trained real-detector router, whose final stage has a true vectorized
// batch path.
func TestRouterTrainedBatchBitIdentical(t *testing.T) {
	train, test := routerSplits(t)
	r := New("Router", realStages(), Config{Seed: 5})
	if err := r.Fit(train); err != nil {
		t.Fatal(err)
	}
	clips := make([]layout.Clip, len(test))
	for i, s := range test {
		clips[i] = s.Clip
	}
	batch, err := r.ScoreBatchCtx(context.Background(), clips)
	if err != nil {
		t.Fatal(err)
	}
	for i, clip := range clips {
		s, err := r.Score(clip)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(s) != math.Float64bits(batch[i]) {
			t.Fatalf("clip %d: Score %v != ScoreBatchCtx %v", i, s, batch[i])
		}
	}
}

// TestRouterScanDeterministicAcrossWorkers: scanning a chip with the
// router produces identical findings for every worker count — the
// routed scan is as deterministic as any single detector's.
func TestRouterScanDeterministicAcrossWorkers(t *testing.T) {
	l := layout.New("chip")
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			x, y := i*1024, j*1024
			edge := 64 + ((i*8+j)*900)/63
			if err := l.AddRect(geom.R(x, y, x+edge, y+edge)); err != nil {
				t.Fatal(err)
			}
		}
	}
	r := mustRouter(t, Band{Lo: 0.3, Hi: 0.7}, Band{Lo: 0.35, Hi: 0.65})
	cfg := core.ScanConfig{ClipNM: 1024, CoreFrac: 0.5, Workers: 1}
	ref, err := core.ScanCtx(context.Background(), l, r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Findings) == 0 {
		t.Fatal("reference scan found nothing; test is vacuous")
	}
	for workers := 2; workers <= 8; workers++ {
		cfg.Workers = workers
		res, err := core.ScanCtx(context.Background(), l, r, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(res.Findings, ref.Findings) {
			t.Fatalf("workers=%d: findings differ from workers=1", workers)
		}
	}
}

// TestRouterTelemetry: the hooked metrics mirror the routing counters.
func TestRouterTelemetry(t *testing.T) {
	clips := testClips(t)
	reg := telemetry.NewRegistry()
	r := mustRouter(t, Band{Lo: 0.3, Hi: 0.7}, Band{Lo: 0.35, Hi: 0.65})
	r.SetHooks(Hooks{Metrics: reg})
	for _, clip := range clips {
		if _, err := r.Score(clip); err != nil {
			t.Fatal(err)
		}
	}
	byOutcome := map[string]float64{}
	seconds := 0
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "hotspot_router_stage_total":
			for _, lb := range s.Labels {
				if lb.Key == "outcome" {
					byOutcome[lb.Value] += s.Value
				}
			}
		case "router_stage_seconds":
			seconds++
			if s.Histogram == nil {
				t.Fatalf("router_stage_seconds is not a histogram: %+v", s)
			}
		}
	}
	answered := byOutcome["answered_hot"] + byOutcome["answered_cold"]
	if answered != float64(len(clips)) {
		t.Fatalf("telemetry answered %v clips, want %d (outcomes %v)",
			answered, len(clips), byOutcome)
	}
	var escalated int64
	for _, s := range r.Stats() {
		escalated += s.Escalated
	}
	if byOutcome["escalated"] != float64(escalated) {
		t.Fatalf("telemetry escalated %v, counters say %d", byOutcome["escalated"], escalated)
	}
	if seconds != len(r.Stages()) {
		t.Fatalf("router_stage_seconds series = %d, want one per stage", seconds)
	}
}

// TestRouterErrors: unfitted use, empty cascades, and member failures
// surface as errors with stage attribution, never panics.
func TestRouterErrors(t *testing.T) {
	r := New("Router", fakeStages(), Config{})
	if _, err := r.Score(layout.Clip{}); !errors.Is(err, errNotFitted) {
		t.Fatalf("unfitted Score err = %v, want errNotFitted", err)
	}
	if _, err := r.ScoreBatchCtx(context.Background(), nil); !errors.Is(err, errNotFitted) {
		t.Fatalf("unfitted ScoreBatchCtx err = %v, want errNotFitted", err)
	}
	if err := New("Router", nil, Config{}).Fit(nil); err == nil {
		t.Fatal("no stages: want error")
	}
	if err := New("Router", fakeStages(), Config{}).Fit(nil); err == nil {
		t.Fatal("empty training set: want error")
	}
	if err := r.SetCalibrations(make([]Calibration, 1)); err == nil {
		t.Fatal("calibration count mismatch: want error")
	}

	boom := fmt.Errorf("member detector exploded")
	stages := fakeStages()
	stages[1].Detector = errDetector{funcDetector{name: "mid", thr: 0.5}, boom}
	r = New("Router", stages, Config{})
	if err := r.SetCalibrations(fakeCals(AlwaysEscalate, AlwaysEscalate)); err != nil {
		t.Fatal(err)
	}
	clips := testClips(t)
	_, err := r.Score(clips[0])
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "mid") {
		t.Fatalf("member failure err = %v, want wrapped with stage name", err)
	}
	if _, err := r.ScoreBatchCtx(context.Background(), clips[:3]); !errors.Is(err, boom) {
		t.Fatalf("batch member failure err = %v, want wrapped", err)
	}
}

func pmConfig() pm.Config       { return pm.Config{GridPx: 32, Tol: 36, Mirror: true} }
func boostConfig() boost.Config { return boost.Config{Rounds: 40, ClassBalance: true} }

// TestRouterEscalationTap: the decisions whose Stage is the final stage
// are exactly the clips the final stage answered (the cascade's
// uncertainty band), once each, through the single-clip and the batch
// path alike.
func TestRouterEscalationTap(t *testing.T) {
	clips := testClips(t)
	b0, b1 := Band{Lo: 0.3, Hi: 0.7}, Band{Lo: 0.35, Hi: 0.65}
	single, batch := mustRouter(t, b0, b1), mustRouter(t, b0, b1)
	singleCalls, batchCalls := recordDecisions(single, nil), recordDecisions(batch, nil)

	for _, clip := range clips {
		if _, err := single.Score(clip); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := batch.ScoreBatchCtx(context.Background(), clips); err != nil {
		t.Fatal(err)
	}
	st := single.Stats()
	finalAnswered := st[len(st)-1].Answered()
	if finalAnswered == 0 || finalAnswered == int64(len(clips)) {
		t.Fatalf("degenerate routing (final answered %d of %d); bands give the hook nothing to distinguish",
			finalAnswered, len(clips))
	}
	seen := escalated(single, singleCalls)
	total := 0
	for _, n := range seen {
		total += n
	}
	if int64(total) != finalAnswered {
		t.Fatalf("hook saw %d final-stage decisions, final stage answered %d", total, finalAnswered)
	}
	for o := range singleCalls {
		if (o.d.StageName == "deep") != (o.d.Stage == len(single.Stages())-1) {
			t.Fatalf("decision %+v: stage index and name disagree", o.d)
		}
	}
	if batchSeen := escalated(batch, batchCalls); !reflect.DeepEqual(batchSeen, seen) {
		t.Fatalf("batch escalation set differs from single-clip set: %d vs %d clips",
			len(batchSeen), len(seen))
	}
}

// TestRouterHookConcurrent: one hooked router scored from 8 goroutines
// (half per clip, half in batches) shows the hook every decision exactly
// once, each equal to the routing rule worked by hand, and the
// final-stage subset is the escalation band. Run under -race: the hooks
// are plain fields written once before the router is shared.
func TestRouterHookConcurrent(t *testing.T) {
	clips := testClips(t)
	r := mustRouter(t, Band{Lo: 0.3, Hi: 0.7}, Band{Lo: 0.35, Hi: 0.65})
	reg := telemetry.NewRegistry()
	calls := recordDecisions(r, reg)

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				_, errs[g] = r.ScoreBatchCtx(context.Background(), clips)
				return
			}
			for _, clip := range clips {
				if _, err := r.Score(clip); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}

	want := map[observed]int{}
	wantEsc := map[layout.Fingerprint]int{}
	for _, clip := range clips {
		stage, hot, p := routeByHand(r, clip)
		d := Decision{Stage: stage, StageName: r.Stages()[stage].Name,
			Hotspot: hot, Confidence: p, Score: encode(p, hot)}
		want[observed{d, clip.Fingerprint()}] += goroutines
		if stage == len(r.Stages())-1 {
			wantEsc[clip.Fingerprint()] += goroutines
		}
	}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("hook saw %d distinct decisions, want %d, each %d times", len(calls), len(want), goroutines)
	}
	if got := escalated(r, calls); len(wantEsc) == 0 || !reflect.DeepEqual(got, wantEsc) {
		t.Fatalf("escalation band: hook saw %d clips, final stage answered %d", len(got), len(wantEsc))
	}
	answered := 0.0
	for _, s := range reg.Snapshot() {
		if s.Name != "hotspot_router_stage_total" {
			continue
		}
		for _, lb := range s.Labels {
			if lb.Key == "outcome" && lb.Value != "escalated" {
				answered += s.Value
			}
		}
	}
	if answered != float64(goroutines*len(clips)) {
		t.Fatalf("hooked metrics count %v answers, want %d", answered, goroutines*len(clips))
	}
}
