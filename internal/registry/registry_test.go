package registry

import (
	"context"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/qualitymon"
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

func TestProbationRollsBack(t *testing.T) {
	cand := det("cand", 0.5, 0.8, 0.8, 0.2, 0.2)
	r, m, swaps := newTestRegistry(t, cand, Config{
		Golden:               golden(4, 2),
		ProbationRequests:    10,
		ProbationMaxFailures: 2,
	})
	if _, _, err := r.Reload(context.Background(), "m"); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	r.ReportOutcome(true)
	r.ReportOutcome(false)
	r.ReportOutcome(false)
	if r.Live().ID != 2 {
		t.Fatal("rolled back before exceeding the failure budget")
	}
	r.ReportOutcome(false) // third failure > budget of 2
	if r.Live().ID != 1 {
		t.Fatalf("live generation = %d, want 1 after rollback", r.Live().ID)
	}
	if got := counter(m, "rolled_back"); got != 1 {
		t.Fatalf("rolled_back counter = %v, want 1", got)
	}
	if got := m.Gauge("hotspot_model_generation").Value(); got != 1 {
		t.Fatalf("generation gauge = %v, want 1 after rollback", got)
	}
	if *swaps != 2 { // swap in + rollback
		t.Fatalf("OnSwap fired %d times, want 2", *swaps)
	}
	// Window is disarmed: further failures cannot double-rollback.
	r.ReportOutcome(false)
	if got := counter(m, "rolled_back"); got != 1 {
		t.Fatalf("rolled_back counter moved after disarm: %v", got)
	}
}

func TestProbationSurvival(t *testing.T) {
	cand := det("cand", 0.5, 0.8, 0.8, 0.2, 0.2)
	r, m, _ := newTestRegistry(t, cand, Config{
		Golden:               golden(4, 2),
		ProbationRequests:    3,
		ProbationMaxFailures: 1,
	})
	if _, _, err := r.Reload(context.Background(), "m"); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	r.ReportOutcome(true)
	r.ReportOutcome(false) // within budget
	r.ReportOutcome(true)  // window closes
	if r.Live().ID != 2 {
		t.Fatalf("live generation = %d, want 2 (survived probation)", r.Live().ID)
	}
	if got := counter(m, "rolled_back"); got != 0 {
		t.Fatalf("rolled_back counter = %v, want 0", got)
	}
	// After surviving, the rollback target is gone.
	if r.Rollback("manual") {
		t.Fatal("Rollback found a previous generation after probation closed")
	}
}

func TestManualRollback(t *testing.T) {
	cand := det("cand", 0.5, 0.8, 0.8, 0.2, 0.2)
	r, _, _ := newTestRegistry(t, cand, Config{Golden: golden(4, 2)})
	if _, _, err := r.Reload(context.Background(), "m"); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if !r.Rollback("operator request") {
		t.Fatal("manual rollback found nothing to restore")
	}
	if r.Live().ID != 1 {
		t.Fatalf("live generation = %d, want 1", r.Live().ID)
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

func TestWatchReloadsOnChange(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/model.hsdnn"
	cand := det("cand", 0.5, 0.8, 0.8, 0.2, 0.2)
	loads := make(chan string, 4)
	r, _, _ := newTestRegistry(t, nil, Config{
		Golden: golden(4, 2),
		Loader: func(p string) (core.Detector, error) {
			select {
			case loads <- p:
			default:
			}
			return cand, nil
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Watch(ctx, path, 5*time.Millisecond)
	}()

	// The watcher's baseline stat races with this goroutine, so a single
	// write could be absorbed as the baseline. Keep growing the file —
	// every write changes its size — until a reload lands.
	writeUntilGeneration := func(want int64) {
		t.Helper()
		content := "model"
		deadline := time.Now().Add(10 * time.Second)
		for r.Live().ID < want {
			if time.Now().After(deadline) {
				t.Fatalf("generation = %d, want %d", r.Live().ID, want)
			}
			content += "+"
			if err := writeFile(path, content); err != nil {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	writeUntilGeneration(2)
	writeUntilGeneration(3)
	select {
	case p := <-loads:
		if p != path {
			t.Fatalf("loaded %s, want %s", p, path)
		}
	default:
		t.Fatal("no load recorded despite generation bumps")
	}
	cancel()
	<-done
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func waitGeneration(t *testing.T, r *Registry, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if r.Live().ID == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("generation = %d, want %d", r.Live().ID, want)
}

// TestRollbackWithBadSidecar: probation rollback restores the previous
// generation cleanly even when that generation's quality sidecar is
// missing or corrupt — the monitor keeps its prior baseline (logged,
// not fatal) and the model swap still lands. A real qualitymon.Monitor
// sits behind Config.Quality so the sidecar load path actually runs.
func TestRollbackWithBadSidecar(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sidecar []byte // nil: no sidecar file at all
	}{
		{"missing-sidecar", nil},
		{"corrupt-sidecar", []byte("not a baseline\x00\xff\x01garbage")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			goodPath := dir + "/good.gob"
			if err := os.WriteFile(goodPath, []byte("model bytes"), 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.sidecar != nil {
				if err := os.WriteFile(qualitymon.SidecarPath(goodPath), tc.sidecar, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			qm := qualitymon.New(qualitymon.Options{Logf: t.Logf})
			defer qm.Close()

			cand := det("cand", 0.5, 0.8, 0.8, 0.2, 0.2)
			r, m, _ := newTestRegistry(t, cand, Config{
				Golden:               golden(4, 2),
				ProbationRequests:    2,
				ProbationMaxFailures: 0,
				Quality:              qm,
			})
			// Generation 2: the future rollback target, sitting next to the
			// bad sidecar. Survive its probation so it becomes the floor.
			if _, _, err := r.Reload(context.Background(), goodPath); err != nil {
				t.Fatalf("Reload rollback target: %v", err)
			}
			r.ReportOutcome(true)
			r.ReportOutcome(true)
			// Generation 3 fails probation: rollback must reinstall
			// generation 2 — and with it the missing/corrupt sidecar.
			if _, _, err := r.Reload(context.Background(), dir+"/bad.gob"); err != nil {
				t.Fatalf("Reload failing candidate: %v", err)
			}
			r.ReportOutcome(false)
			if live := r.Live(); live.ID != 2 || live.Source != goodPath {
				t.Fatalf("live = ID %d source %s, want generation 2 from %s restored",
					live.ID, live.Source, goodPath)
			}
			if got := counter(m, "rolled_back"); got != 1 {
				t.Fatalf("rolled_back counter = %v, want 1", got)
			}
		})
	}
}
