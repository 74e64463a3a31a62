package registry

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/telemetry"
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
func (d *fakeDet) Score(c layout.Clip) (float64, error) {
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

func TestGateRejectsNaNModel(t *testing.T) {
	cand := det("nan", 0.5, math.NaN(), 0.9, 0.1, 0.1)
	r, m, swaps := newTestRegistry(t, cand, Config{Golden: golden(4, 2)})

	_, v, err := r.Reload(context.Background(), "model-nan")
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if v.OK {
		t.Fatal("verdict passed a NaN candidate")
	}
	if r.Live().ID != 1 {
		t.Fatalf("live generation = %d, want 1 (unchanged)", r.Live().ID)
	}
	if *swaps != 0 {
		t.Fatal("OnSwap fired for a rejected candidate")
	}
	if got := counter(m, "rejected"); got != 1 {
		t.Fatalf("rejected counter = %v, want 1", got)
	}
}

func TestGateRejectsRecallRegression(t *testing.T) {
	// Candidate misses both hotspots: recall 1.0 -> 0.0.
	cand := det("worse", 0.5, 0.1, 0.1, 0.1, 0.1)
	r, _, _ := newTestRegistry(t, cand, Config{Golden: golden(4, 2), MaxRecallDrop: 0.25})
	if _, v, err := r.Reload(context.Background(), "m"); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v (verdict %s), want ErrRejected", err, v)
	}
}

func TestGateRejectsFalseAlarmRegression(t *testing.T) {
	// Candidate flags both coldspots: FAR 0.0 -> 1.0.
	cand := det("noisy", 0.5, 0.9, 0.9, 0.9, 0.9)
	r, _, _ := newTestRegistry(t, cand, Config{Golden: golden(4, 2), MaxFalseAlarmRise: 0.25})
	if _, _, err := r.Reload(context.Background(), "m"); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
}

func TestGateRejectsPanickingCandidate(t *testing.T) {
	cand := &fakeDet{name: "boom", panics: true}
	r, m, _ := newTestRegistry(t, cand, Config{Golden: golden(4, 2)})
	if _, _, err := r.Reload(context.Background(), "m"); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if got := counter(m, "rejected"); got != 1 {
		t.Fatalf("rejected counter = %v, want 1", got)
	}
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

func TestEmptyGoldenGatesOnSanityOnly(t *testing.T) {
	bad := det("nan", 0.5, math.NaN())
	r, _, _ := newTestRegistry(t, bad, Config{})
	// No goldens: nothing scored, so even a would-be-NaN model passes —
	// the gate degrades to sanity checks over an empty set.
	if _, _, err := r.Reload(context.Background(), "m"); err != nil {
		t.Fatalf("Reload with empty golden set: %v", err)
	}
}

// countingDet counts the clips a detector is asked to score.
type countingDet struct {
	core.Detector
	n int
}

func (d *countingDet) Score(c layout.Clip) (float64, error) {
	d.n++
	return d.Detector.Score(c)
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
// one included, reuses those scores. Each reload's verdict is Gate's on
// the same two detectors.
func TestReloadScoresLiveOnce(t *testing.T) {
	g := golden(4, 2)
	boot := &countingDet{Detector: det("live", 0.5, 0.9, 0.9, 0.1, 0.1)}
	worse := &countingDet{Detector: det("worse", 0.5, 0.9, 0.1, 0.1, 0.1)}
	good := &countingDet{Detector: det("good", 0.5, 0.8, 0.8, 0.2, 0.2)}
	var next *countingDet
	r := New(boot, Config{
		Golden: g,
		Loader: func(string) (core.Detector, error) { return next, nil },
	})
	reload := func(cand *countingDet, wantOK bool) {
		t.Helper()
		live := r.Live().Detector.(*countingDet).Detector
		want := Gate(live, cand.Detector, g, 0, 0, nil)
		next = cand
		_, v, err := r.Reload(context.Background(), cand.Name())
		if (err == nil) != wantOK || v.OK != wantOK {
			t.Fatalf("reload %s: err %v, verdict %s; want ok %v", cand.Name(), err, v, wantOK)
		}
		if !sameVerdict(v, want) {
			t.Fatalf("reload %s: verdict %+v, Gate's %+v", cand.Name(), v, want)
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
