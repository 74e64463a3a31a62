package registry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/telemetry"
	"github.com/golitho/hsd/internal/trace"
)

// fakeDet scores clips by looking up the index encoded in the clip
// window's X origin, so tests control every golden score exactly.
type fakeDet struct {
	name   string
	scores []float64
	thr    float64
	panics bool
}

func (d *fakeDet) Name() string                 { return d.name }
func (d *fakeDet) Fit([]core.LabeledClip) error { return nil }
func (d *fakeDet) Threshold() float64           { return d.thr }
func (d *fakeDet) Score(_ context.Context, c layout.Clip) (float64, error) {
	if d.panics {
		panic("shape mismatch")
	}
	i := c.Window.Min.X
	if i < 0 || i >= len(d.scores) {
		return 0, nil
	}
	return d.scores[i], nil
}

// golden builds a labelled set: the first nHot clips are hotspots.
func golden(n, nHot int) []core.LabeledClip {
	out := make([]core.LabeledClip, n)
	for i := range out {
		out[i] = core.LabeledClip{
			Clip:    layout.Clip{Window: geom.R(i, 0, i+1, 1)},
			Hotspot: i < nHot,
		}
	}
	return out
}

// scores maps (hotspot scores..., coldspot scores...) onto the golden
// index space.
func det(name string, thr float64, scores ...float64) *fakeDet {
	return &fakeDet{name: name, thr: thr, scores: scores}
}

func counter(m *telemetry.Registry, outcome string) float64 {
	return m.Counter("hotspot_reloads_total", telemetry.L("outcome", outcome)).Value()
}

func newTestRegistry(t *testing.T, cand core.Detector, cfg Config) (*Registry, *telemetry.Registry, *int) {
	t.Helper()
	swaps := 0
	inner := cfg.OnSwap
	cfg.OnSwap = func(g *Generation) {
		swaps++
		if inner != nil {
			inner(g)
		}
	}
	if cfg.Loader == nil {
		cfg.Loader = func(path string) (core.Detector, error) { return cand, nil }
	}
	m := telemetry.NewRegistry()
	cfg.Metrics = m
	// Live model: perfect on the 4-clip golden set (2 hot, 2 cold).
	r := New(det("live", 0.5, 0.9, 0.9, 0.1, 0.1), cfg)
	return r, m, &swaps
}

// TestRegistryCountsFirstReload: a registry built with Config.Metrics
// counts from generation 1. The gauge reads 1 and the first reload is
// counted with no further call, where a registry bound to its metrics
// after construction lost whatever happened in between.
func TestRegistryCountsFirstReload(t *testing.T) {
	m := telemetry.NewRegistry()
	r := New(det("live", 0.5, 0.9, 0.9, 0.1, 0.1), Config{
		Metrics: m,
		Golden:  golden(4, 2),
		Loader: func(string) (core.Detector, error) {
			return det("worse", 0.5, 0.1, 0.1, 0.1, 0.1), nil
		},
	})
	if got := m.Gauge("hotspot_model_generation").Value(); got != 1 {
		t.Fatalf("generation gauge = %v before any reload, want 1", got)
	}
	if _, _, err := r.Reload(context.Background(), "m"); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if got := counter(m, "rejected"); got != 1 {
		t.Fatalf("rejected counter = %v, want 1", got)
	}
	if got := m.Gauge("hotspot_model_generation").Value(); got != 1 {
		t.Fatalf("generation gauge = %v after a rejected reload, want 1", got)
	}
}

func TestReloadSwapsGoodCandidate(t *testing.T) {
	cand := det("cand", 0.5, 0.8, 0.8, 0.2, 0.2) // same recall/FAR
	r, m, swaps := newTestRegistry(t, cand, Config{Golden: golden(4, 2)})

	gen, v, err := r.Reload(context.Background(), "model-v2")
	if err != nil {
		t.Fatalf("Reload: %v (verdict %s)", err, v)
	}
	if gen.ID != 2 || r.Live().ID != 2 || r.Live().Detector != core.Detector(cand) {
		t.Fatalf("live generation = %+v, want ID 2 serving candidate", r.Live())
	}
	if *swaps != 1 {
		t.Fatalf("OnSwap fired %d times, want 1", *swaps)
	}
	if got := counter(m, "swapped"); got != 1 {
		t.Fatalf("swapped counter = %v, want 1", got)
	}
	if got := m.Gauge("hotspot_model_generation").Value(); got != 2 {
		t.Fatalf("generation gauge = %v, want 2", got)
	}
	if !v.OK || v.CandRecall != 1 || v.CandFAR != 0 {
		t.Fatalf("verdict = %+v, want clean pass", v)
	}
}

// gateCase is one reload through the gate: the live model, the
// candidate the loader returns, the golden set, and what the verdict
// must say. A case runs with the registry's default (nil) Logf unless
// it checks the log.
type gateCase struct {
	live, cand core.Detector
	golden     []core.LabeledClip
	wantOK     bool
	wantReason string  // substring of Verdict.Reason
	wantRecall float64 // the candidate's golden recall; NaN: undefined
	wantLog    string  // substring of a Logf line; "": Logf left nil
}

// run reloads tc.cand over tc.live and checks the verdict, its reason,
// the candidate's recall and ErrRejected, and that a pass swaps in
// generation 2 (OnSwap once, the swapped counter 1) while a rejection
// leaves generation 1 live (no OnSwap, the rejected counter 1).
func (tc gateCase) run(t *testing.T) {
	t.Helper()
	m := telemetry.NewRegistry()
	var logs []string
	cfg := Config{
		Golden:  tc.golden,
		Metrics: m,
		Loader:  func(string) (core.Detector, error) { return tc.cand, nil },
	}
	if tc.wantLog != "" {
		cfg.Logf = func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
	}
	swaps := 0
	cfg.OnSwap = func(*Generation) { swaps++ }
	r := New(tc.live, cfg)
	gen, v, err := r.Reload(context.Background(), "m")
	if v.OK != tc.wantOK || (err == nil) != tc.wantOK || (gen != nil) != tc.wantOK {
		t.Fatalf("verdict %s, err %v; want ok %v", v, err, tc.wantOK)
	}
	if !tc.wantOK && !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if !strings.Contains(v.Reason, tc.wantReason) {
		t.Fatalf("reason %q does not say %q", v.Reason, tc.wantReason)
	}
	if got := v.CandRecall; got != tc.wantRecall && !(math.IsNaN(got) && math.IsNaN(tc.wantRecall)) {
		t.Fatalf("candidate recall %v, want %v", got, tc.wantRecall)
	}
	wantID, wantSwaps, outcome := int64(1), 0, "rejected"
	if tc.wantOK {
		wantID, wantSwaps, outcome = 2, 1, "swapped"
	}
	if r.Live().ID != wantID || swaps != wantSwaps || counter(m, outcome) != 1 {
		t.Fatalf("live generation %d, %d swaps, %s counter %v; want %d, %d and 1",
			r.Live().ID, swaps, outcome, counter(m, outcome), wantID, wantSwaps)
	}
	if tc.wantLog != "" && !strings.Contains(strings.Join(logs, "\n"), tc.wantLog) {
		t.Fatalf("logs %q do not say %q", logs, tc.wantLog)
	}
}

// perfectLive catches the 4 hotspots of golden(6, 4) and flags neither
// coldspot.
var perfectLive = det("live", 0.5, 0.9, 0.9, 0.9, 0.9, 0.1, 0.1)

// TestGateVerdicts: the recall floor, one row a verdict. A candidate
// whose golden recall is at least half the live model's passes and one
// below half is rejected; the floor is skipped when a recall is
// undefined, and nothing else of the two models is compared, so false
// alarms may rise.
func TestGateVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name string
		gateCase
	}{
		{"recall-at-half", gateCase{live: perfectLive, golden: golden(6, 4), wantOK: true, wantRecall: 0.5,
			cand: det("cand", 0.5, 0.9, 0.9, 0.4, 0.4, 0.1, 0.1)}},
		{"recall-below-half", gateCase{live: perfectLive, golden: golden(6, 4), wantReason: "recall collapse", wantRecall: 0.25,
			cand: det("cand", 0.5, 0.9, 0.4, 0.4, 0.4, 0.1, 0.1)}},
		{"false-alarms-rise", gateCase{live: perfectLive, golden: golden(6, 4), wantOK: true, wantRecall: 1,
			cand: det("cand", 0.5, 0.9, 0.9, 0.9, 0.9, 0.6, 0.1)}},
		{"false-alarms-to-all", gateCase{live: perfectLive, golden: golden(6, 4), wantOK: true, wantRecall: 1,
			cand: det("cand", 0.5, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9)}},
		{"recall-undefined", gateCase{live: det("live", 0.5, 0.1, 0.1), golden: golden(2, 0), wantOK: true, wantRecall: math.NaN(),
			cand: det("cand", 0.5, 0.9, 0.9)}},
	} {
		t.Run(tc.name, tc.run)
	}
}

func TestGateAdmitsSmallScoreDrift(t *testing.T) {
	// Every score nudged, no decision flips.
	gateCase{live: perfectLive, golden: golden(6, 4), wantOK: true, wantRecall: 1,
		cand: det("cand", 0.5, 0.87, 0.83, 0.95, 0.6, 0.12, 0.17)}.run(t)
}

func TestGateRejectsRecallRegression(t *testing.T) {
	// The candidate misses every hotspot: recall 1 -> 0.
	gateCase{live: perfectLive, golden: golden(6, 4), wantReason: "recall collapse", wantRecall: 0,
		cand: det("worse", 0.5, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)}.run(t)
}

func TestGateRejectsNaNModel(t *testing.T) {
	gateCase{live: perfectLive, golden: golden(6, 4), wantReason: "non-finite", wantRecall: math.NaN(),
		cand: det("nan", 0.5, 0.9, math.NaN(), 0.9, 0.9, 0.1, 0.1)}.run(t)
}

func TestGateRejectsNonFiniteCandidate(t *testing.T) {
	gateCase{live: perfectLive, golden: golden(6, 4), wantReason: "non-finite", wantRecall: math.NaN(),
		cand: det("inf", 0.5, 0.9, 0.9, 0.9, 0.9, math.Inf(-1), 0.1)}.run(t)
}

func TestGateRejectsPanickingCandidate(t *testing.T) {
	gateCase{live: perfectLive, golden: golden(6, 4), wantReason: "scoring panicked", wantRecall: math.NaN(),
		cand: &fakeDet{name: "boom", panics: true}}.run(t)
}

// TestGateLogsBaselineFailure: a live model that cannot score the golden
// set leaves the gate on sanity alone, so even a recall-0 candidate
// passes, and the registry says so in its log.
func TestGateLogsBaselineFailure(t *testing.T) {
	gateCase{live: &fakeDet{name: "live", thr: 0.5, panics: true}, golden: golden(6, 4),
		wantOK: true, wantReason: "no live baseline", wantRecall: math.NaN(), wantLog: "gating on sanity only",
		cand: det("cand", 0.5, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)}.run(t)
}

// TestGateNilLogf: a registry left with a nil Logf does not panic
// anywhere in the verdict path, the no-baseline path that logs included.
func TestGateNilLogf(t *testing.T) {
	self := det("live", 0.5, 0.9, 0.1)
	gateCase{live: self, cand: self, golden: golden(2, 1), wantOK: true, wantRecall: 1}.run(t)
	gateCase{live: &fakeDet{name: "live", thr: 0.5, panics: true}, golden: golden(2, 1),
		wantOK: true, wantReason: "no live baseline", wantRecall: math.NaN(),
		cand: det("cand", 0.5, 0.9, 0.1)}.run(t)
}

func TestGateEmptyGoldenSanityOnly(t *testing.T) {
	gateCase{live: perfectLive, wantOK: true, wantRecall: math.NaN(), cand: det("cand", 0.5)}.run(t)
}

func TestEmptyGoldenGatesOnSanityOnly(t *testing.T) {
	// No goldens: nothing is scored, so even a would-be-NaN model passes.
	gateCase{live: perfectLive, wantOK: true, wantRecall: math.NaN(), cand: det("nan", 0.5, math.NaN())}.run(t)
}

func TestReloadCountsLoadFailure(t *testing.T) {
	r, m, _ := newTestRegistry(t, nil, Config{
		Golden: golden(4, 2),
		Loader: func(string) (core.Detector, error) { return nil, errors.New("no such file") },
	})
	if _, _, err := r.Reload(context.Background(), "missing"); err == nil {
		t.Fatal("Reload of failing loader succeeded")
	}
	if got := counter(m, "load_failed"); got != 1 {
		t.Fatalf("load_failed counter = %v, want 1", got)
	}
}

func TestManualRollback(t *testing.T) {
	cand := det("cand", 0.5, 0.8, 0.8, 0.2, 0.2)
	r, _, _ := newTestRegistry(t, cand, Config{Golden: golden(4, 2)})
	if _, _, err := r.Reload(context.Background(), "m"); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if !r.Rollback(r.Live(), "operator request") {
		t.Fatal("manual rollback found nothing to restore")
	}
	if r.Live().ID != 1 {
		t.Fatalf("live generation = %d, want 1", r.Live().ID)
	}
}

// TestRollbackOnlyFromLive: a rollback names the generation it rolls
// back from and does nothing unless that generation is live, so a
// replaced generation's late failure cannot roll back its successor.
// The generation a swap replaced stays the rollback target until the
// next swap, however long the new one has served; the restored one has
// none.
func TestRollbackOnlyFromLive(t *testing.T) {
	cand := det("cand", 0.5, 0.8, 0.8, 0.2, 0.2)
	r, m, swaps := newTestRegistry(t, cand, Config{Golden: golden(4, 2)})
	boot := r.Live()
	if r.Rollback(boot, "boot") {
		t.Fatal("rolled back the boot generation, which has no predecessor")
	}
	if _, _, err := r.Reload(context.Background(), "m"); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	g2 := r.Live()
	if _, _, err := r.Reload(context.Background(), "m"); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if r.Rollback(g2, "late failure of a replaced generation") || r.Rollback(boot, "older still") {
		t.Fatal("a rollback from a generation that is not live went through")
	}
	if r.Live().ID != 3 || counter(m, "rolled_back") != 0 || *swaps != 2 {
		t.Fatalf("live %d, %v rollbacks, %d swaps; want 3, 0 and 2", r.Live().ID, counter(m, "rolled_back"), *swaps)
	}
	g3 := r.Live()
	if !r.Rollback(g3, "operator") || r.Live() != g2 {
		t.Fatalf("rollback from the live generation 3 left %d live, want 2", r.Live().ID)
	}
	if r.Rollback(g3, "second request that saw the same failure") || r.Rollback(g2, "again") {
		t.Fatal("rolled back twice: the restored generation has no rollback target")
	}
	if got := counter(m, "rolled_back"); got != 1 {
		t.Fatalf("rolled_back counter = %v, want 1", got)
	}
}

// countingDet counts the clips a detector is asked to score.
type countingDet struct {
	core.Detector
	n int
}

func (d *countingDet) Score(ctx context.Context, c layout.Clip) (float64, error) {
	d.n++
	return d.Detector.Score(ctx, c)
}

// sameVerdict reports whether two verdicts agree field by field, NaNs
// matching NaNs.
func sameVerdict(a, b Verdict) bool {
	same := func(x, y float64) bool { return x == y || math.IsNaN(x) && math.IsNaN(y) }
	return a.OK == b.OK && a.Reason == b.Reason && same(a.LiveRecall, b.LiveRecall) &&
		same(a.CandRecall, b.CandRecall) && same(a.LiveFAR, b.LiveFAR) && same(a.CandFAR, b.CandFAR)
}

// TestReloadScoresLiveOnce: a generation is scored on the golden set
// once, as the candidate or, for the boot generation, at its first
// reload as the live model; every later gate against it, a rolled-back
// one included, reuses those scores. Each reload's verdict is judge's on
// the same two detectors' fresh scores.
func TestReloadScoresLiveOnce(t *testing.T) {
	g := golden(4, 2)
	boot := &countingDet{Detector: det("live", 0.5, 0.9, 0.9, 0.1, 0.1)}
	worse := &countingDet{Detector: det("worse", 0.5, 0.1, 0.1, 0.1, 0.1)}
	good := &countingDet{Detector: det("good", 0.5, 0.8, 0.8, 0.2, 0.2)}
	var next *countingDet
	r := New(boot, Config{
		Golden: g,
		Loader: func(string) (core.Detector, error) { return next, nil },
	})
	reload := func(cand *countingDet, wantOK bool) {
		t.Helper()
		live := r.Live().Detector.(*countingDet).Detector
		ctx := context.Background()
		want := judge(live, cand.Detector, g, scoreGolden(ctx, live, g), scoreGolden(ctx, cand.Detector, g), t.Logf)
		next = cand
		_, v, err := r.Reload(ctx, cand.Name())
		if (err == nil) != wantOK || v.OK != wantOK {
			t.Fatalf("reload %s: err %v, verdict %s; want ok %v", cand.Name(), err, v, wantOK)
		}
		if !sameVerdict(v, want) {
			t.Fatalf("reload %s: verdict %+v, judge's %+v", cand.Name(), v, want)
		}
	}
	const n = 5
	for i := 0; i < n; i++ {
		reload(worse, false)
	}
	if boot.n != len(g) || worse.n != n*len(g) {
		t.Fatalf("after %d rejected reloads: boot scored %d clips, candidate %d; want %d and %d",
			n, boot.n, worse.n, len(g), n*len(g))
	}
	reload(good, true)
	for i := 0; i < n; i++ {
		reload(worse, false)
	}
	if good.n != len(g) || boot.n != len(g) {
		t.Fatalf("live generation 2 scored %d clips, boot %d; want %d each", good.n, boot.n, len(g))
	}
	if !r.Rollback(r.Live(), "test") {
		t.Fatal("no generation to roll back to")
	}
	for i := 0; i < n; i++ {
		reload(worse, false)
	}
	if boot.n != len(g) {
		t.Fatalf("rolled-back boot generation scored %d clips, want its kept %d", boot.n, len(g))
	}
}

// spanDet ends one "inference" span on the context's trace for every
// clip it scores.
type spanDet struct{ core.Detector }

func (d spanDet) Score(ctx context.Context, c layout.Clip) (float64, error) {
	_, sp := trace.Start(ctx, "inference")
	defer sp.End()
	return d.Detector.Score(ctx, c)
}

// TestReloadScoresGoldenUnderReloadSpan: the gate scores the golden set
// under the reload's context, so the live model's and the candidate's
// golden scores each hang their spans from the "model.reload" span.
func TestReloadScoresGoldenUnderReloadSpan(t *testing.T) {
	g := golden(4, 2)
	cand := spanDet{det("cand", 0.5, 0.8, 0.8, 0.2, 0.2)}
	r := New(spanDet{det("live", 0.5, 0.9, 0.9, 0.1, 0.1)}, Config{
		Golden: g,
		Loader: func(string) (core.Detector, error) { return cand, nil },
	})
	tr := trace.New(trace.Config{Capacity: 1})
	if _, _, err := r.Reload(trace.WithTracer(context.Background(), tr), "cand"); err != nil {
		t.Fatal(err)
	}
	rec := tr.Traces(1)[0]
	var root string
	for _, sp := range rec.Spans {
		if sp.Name == "model.reload" {
			root = sp.SpanID
		}
	}
	n := 0
	for _, sp := range rec.Spans {
		if sp.Name == "inference" && sp.ParentID == root {
			n++
		}
	}
	if rec.Root != "model.reload" || n != 2*len(g) {
		t.Fatalf("trace %q holds %d inference spans under model.reload, want %d", rec.Root, n, 2*len(g))
	}
}
