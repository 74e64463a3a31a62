// Package registry manages versioned model generations for hot reload.
//
// A Registry holds the live detector generation behind an atomic
// pointer (lock-free reads on the serving hot path) and serializes
// reloads: a candidate model is loaded in the background, scored
// against a golden validation set, and compared with the live model —
// hotspot recall must not drop and the false-alarm rate must not rise
// beyond configured bounds, all candidate scores must be finite, and a
// panicking candidate (wrong tensor shape) is caught and rejected. Only
// a candidate that passes the gate is swapped in. After a swap the
// registry watches a probation window of serving outcomes; if errors
// spike, it automatically rolls back to the previous generation.
//
// Every decision is observable: hotspot_model_generation (gauge),
// hotspot_reloads_total{outcome} with outcomes swapped / load_failed /
// rejected / rolled_back, and a model.reload span carrying the gate
// verdict.
package registry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/telemetry"
	"github.com/golitho/hsd/internal/trace"
)

// Generation is one immutable model version.
type Generation struct {
	// ID increases with every accepted swap. A rollback restores the
	// previous generation object, so the gauge visibly drops back.
	ID int64
	// Source records where the model came from ("boot" or a file path).
	Source string
	// Detector serves this generation's model.
	Detector core.Detector
	// LoadedAt is when the generation went live.
	LoadedAt time.Time
}

// Verdict is the validation gate's decision on a candidate model.
type Verdict struct {
	OK     bool
	Reason string
	// Recall and false-alarm rate of live and candidate on the golden
	// set (NaN when the gate had no golden samples of that class).
	LiveRecall, CandRecall float64
	LiveFAR, CandFAR       float64
}

func (v Verdict) String() string {
	if v.OK {
		return fmt.Sprintf("pass (recall %.3f->%.3f, far %.3f->%.3f)",
			v.LiveRecall, v.CandRecall, v.LiveFAR, v.CandFAR)
	}
	return "reject: " + v.Reason
}

// Config parameterizes a Registry.
type Config struct {
	// Loader builds a candidate detector from a model path.
	Loader func(path string) (core.Detector, error)
	// Golden is the validation set the gate scores both models on. An
	// empty set reduces the gate to finiteness/panic sanity checks.
	Golden []core.LabeledClip
	// MaxRecallDrop is how much hotspot recall the candidate may lose
	// vs. the live model (default 0: no regression allowed).
	MaxRecallDrop float64
	// MaxFalseAlarmRise is how much the false-alarm rate may rise
	// (default 0).
	MaxFalseAlarmRise float64
	// ProbationRequests is how many post-swap serving outcomes are
	// watched (0 disables probation).
	ProbationRequests int
	// ProbationMaxFailures is how many failures within the window are
	// tolerated before automatic rollback.
	ProbationMaxFailures int
	// OnSwap is called with the new live generation after every swap
	// and rollback; servers use it to repoint their serving path.
	OnSwap func(gen *Generation)
	// Quality, when set, is notified on every generation change: live
	// quality windows are reset (the old model's traffic must not count
	// against the new one) and the incoming generation's baseline
	// sidecar is installed as the new drift reference.
	Quality QualityMonitor
	// Metrics receives hotspot_model_generation and
	// hotspot_reloads_total{outcome} (nil: not exported). Read in New, so
	// the gauge reads 1 before the first scrape and the first Reload is
	// counted.
	Metrics *telemetry.Registry
	// Logf receives watcher and rollback notices (default: discard).
	Logf func(format string, args ...any)
}

// QualityMonitor is the registry's view of the model-quality monitor
// (internal/qualitymon.Monitor satisfies it). Reset clears live drift /
// confusion / SLO windows; InstallBaselineSidecar loads the quality
// baseline persisted next to a model file (a missing sidecar is not an
// error — the monitor keeps the previous reference).
type QualityMonitor interface {
	Reset()
	InstallBaselineSidecar(modelPath string)
}

// Registry is the versioned model store. Safe for concurrent use.
type Registry struct {
	cfg Config

	live atomic.Pointer[Generation]

	mu     sync.Mutex // serializes reload / rollback / probation counts
	prev   *Generation
	nextID int64

	probActive   atomic.Bool
	probLeft     int
	probFailures int

	generation *telemetry.Gauge
}

// New builds a registry serving initial as generation 1.
func New(initial core.Detector, cfg Config) *Registry {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	m := cfg.Metrics
	m.SetHelp("hotspot_model_generation", "Generation number of the live model (drops back on rollback).")
	m.SetHelp("hotspot_reloads_total", "Model reload attempts by outcome (swapped, load_failed, rejected, rolled_back).")
	r := &Registry{cfg: cfg, nextID: 1, generation: m.Gauge("hotspot_model_generation")}
	r.goLive(&Generation{ID: 1, Source: "boot", Detector: initial, LoadedAt: time.Now()})
	return r
}

// goLive makes gen the serving generation and the gauge's value.
func (r *Registry) goLive(gen *Generation) {
	r.live.Store(gen)
	r.generation.Set(float64(gen.ID))
}

// countReload counts one reload decision; an outcome's series appears
// with its first occurrence.
func (r *Registry) countReload(outcome string) {
	r.cfg.Metrics.Counter("hotspot_reloads_total", telemetry.L("outcome", outcome)).Inc()
}

// Live returns the serving generation. Lock-free; call per request.
func (r *Registry) Live() *Generation { return r.live.Load() }

// gateScores scores the golden clips with panic containment: a
// candidate trained for a different tensor shape panics inside the
// forward pass, and that must read as a gate rejection, not a crash.
func gateScores(det core.Detector, clips []core.LabeledClip) (scores []float64, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			scores, err = nil, fmt.Errorf("scoring panicked: %v", rec)
		}
	}()
	raw := make([]float64, len(clips))
	for i, s := range clips {
		v, serr := det.Score(s.Clip)
		if serr != nil {
			return nil, fmt.Errorf("golden clip %d: %w", i, serr)
		}
		raw[i] = v
	}
	return raw, nil
}

// goldenStats folds scores into (recall, false-alarm rate) under the
// detector's threshold.
func goldenStats(det core.Detector, clips []core.LabeledClip, scores []float64) (recall, far float64) {
	thr := det.Threshold()
	var hot, hotHit, cold, coldHit int
	for i, s := range clips {
		flagged := scores[i] >= thr
		if s.Hotspot {
			hot++
			if flagged {
				hotHit++
			}
		} else {
			cold++
			if flagged {
				coldHit++
			}
		}
	}
	recall, far = math.NaN(), math.NaN()
	if hot > 0 {
		recall = float64(hotHit) / float64(hot)
	}
	if cold > 0 {
		far = float64(coldHit) / float64(cold)
	}
	return recall, far
}

// Gate validates a candidate detector against a live baseline on a
// golden set: every candidate score must be finite, hotspot recall must
// not drop more than maxRecallDrop below the live model's, and the
// false-alarm rate must not rise more than maxFalseAlarmRise above it.
// Scoring panics read as rejections. An empty golden set reduces the
// gate to the sanity checks. logf (optional) receives gate notices.
func Gate(live, cand core.Detector, golden []core.LabeledClip,
	maxRecallDrop, maxFalseAlarmRise float64, logf func(format string, args ...any)) Verdict {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	v := Verdict{LiveRecall: math.NaN(), CandRecall: math.NaN(), LiveFAR: math.NaN(), CandFAR: math.NaN()}
	candScores, err := gateScores(cand, golden)
	if err != nil {
		v.Reason = "candidate: " + err.Error()
		return v
	}
	for i, s := range candScores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			v.Reason = fmt.Sprintf("candidate produced non-finite score %v on golden clip %d", s, i)
			return v
		}
	}
	if len(golden) == 0 {
		v.OK = true
		return v
	}
	liveScores, err := gateScores(live, golden)
	if err != nil {
		// A live model that cannot score the goldens gives the gate no
		// baseline; accept on candidate sanity alone rather than wedge
		// reloads forever.
		logf("registry: live model failed golden scoring (%v); gating on sanity only", err)
		v.OK = true
		v.Reason = "no live baseline"
		return v
	}
	v.LiveRecall, v.LiveFAR = goldenStats(live, golden, liveScores)
	v.CandRecall, v.CandFAR = goldenStats(cand, golden, candScores)
	if !math.IsNaN(v.LiveRecall) && !math.IsNaN(v.CandRecall) &&
		v.CandRecall < v.LiveRecall-maxRecallDrop {
		v.Reason = fmt.Sprintf("recall regression: %.3f -> %.3f (max drop %.3f)",
			v.LiveRecall, v.CandRecall, maxRecallDrop)
		return v
	}
	if !math.IsNaN(v.LiveFAR) && !math.IsNaN(v.CandFAR) &&
		v.CandFAR > v.LiveFAR+maxFalseAlarmRise {
		v.Reason = fmt.Sprintf("false-alarm regression: %.3f -> %.3f (max rise %.3f)",
			v.LiveFAR, v.CandFAR, maxFalseAlarmRise)
		return v
	}
	v.OK = true
	return v
}

// gate validates a candidate against the live model with the registry's
// configured golden set and drift bounds.
func (r *Registry) gate(live, cand core.Detector) Verdict {
	return Gate(live, cand, r.cfg.Golden, r.cfg.MaxRecallDrop, r.cfg.MaxFalseAlarmRise, r.cfg.Logf)
}

// ErrRejected wraps gate rejections so callers can map them to a
// distinct response (422 vs 500).
var ErrRejected = errors.New("registry: candidate rejected by validation gate")

// Reload loads the model at path, runs the validation gate against the
// live generation, and swaps the candidate in when it passes. The
// returned Verdict carries the gate numbers either way. On success the
// previous generation is retained for rollback and the probation window
// (when configured) is armed.
func (r *Registry) Reload(ctx context.Context, path string) (*Generation, Verdict, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	_, sp := trace.Start(ctx, "model.reload", trace.A("path", path))
	defer sp.End()

	cand, err := r.cfg.Loader(path)
	if err != nil {
		r.countReload("load_failed")
		err = fmt.Errorf("registry: load %s: %w", path, err)
		sp.SetError(err)
		return nil, Verdict{Reason: err.Error()}, err
	}
	live := r.live.Load()
	verdict := r.gate(live.Detector, cand)
	sp.SetAttr("gate", verdict.String())
	if !verdict.OK {
		r.countReload("rejected")
		err := fmt.Errorf("%w: %s", ErrRejected, verdict.Reason)
		sp.SetError(err)
		return nil, verdict, err
	}

	r.nextID++
	gen := &Generation{ID: r.nextID, Source: path, Detector: cand, LoadedAt: time.Now()}
	r.prev = live
	r.goLive(gen)
	if r.cfg.ProbationRequests > 0 {
		r.probLeft = r.cfg.ProbationRequests
		r.probFailures = 0
		r.probActive.Store(true)
	}
	r.countReload("swapped")
	sp.SetAttrInt("generation", int(gen.ID))
	if r.cfg.OnSwap != nil {
		r.cfg.OnSwap(gen)
	}
	if r.cfg.Quality != nil {
		r.cfg.Quality.Reset()
		r.cfg.Quality.InstallBaselineSidecar(path)
	}
	r.cfg.Logf("registry: swapped in generation %d from %s (%s)", gen.ID, path, verdict)
	return gen, verdict, nil
}

// ReportOutcome feeds one serving outcome (ok=false for a primary
// error) into the probation window. Outside probation it is one atomic
// load. Exceeding the failure budget rolls back to the previous
// generation.
func (r *Registry) ReportOutcome(ok bool) {
	if !r.probActive.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.probActive.Load() { // re-check: a racing rollback disarmed it
		return
	}
	if !ok {
		r.probFailures++
	}
	r.probLeft--
	if r.probFailures > r.cfg.ProbationMaxFailures {
		r.rollbackLocked(fmt.Sprintf("%d failures in probation window", r.probFailures))
		return
	}
	if r.probLeft <= 0 {
		// Survived probation: the previous generation is no longer
		// needed as a rollback target.
		r.probActive.Store(false)
		r.prev = nil
	}
}

// rollbackLocked restores the previous generation. Caller holds r.mu.
func (r *Registry) rollbackLocked(reason string) {
	r.probActive.Store(false)
	if r.prev == nil {
		r.cfg.Logf("registry: rollback wanted (%s) but no previous generation", reason)
		return
	}
	bad := r.live.Load()
	restored := r.prev
	r.prev = nil
	r.goLive(restored)
	r.countReload("rolled_back")
	if r.cfg.OnSwap != nil {
		r.cfg.OnSwap(restored)
	}
	if r.cfg.Quality != nil {
		r.cfg.Quality.Reset()
		// The boot generation has no model file to find a sidecar next
		// to; its baseline (installed at startup) is still in place.
		if restored.Source != "boot" {
			r.cfg.Quality.InstallBaselineSidecar(restored.Source)
		}
	}
	r.cfg.Logf("registry: rolled back generation %d -> %d: %s", bad.ID, restored.ID, reason)
}

// Rollback manually restores the previous generation (admin use).
func (r *Registry) Rollback(reason string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	had := r.prev != nil
	r.rollbackLocked(reason)
	return had
}

// Watch polls path until ctx is done, reloading whenever the file's
// modification time or size changes. The first observation establishes
// the baseline (no reload for the boot model). Reload failures are
// logged and do not stop the watch.
func (r *Registry) Watch(ctx context.Context, path string, interval time.Duration) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	var lastMod time.Time
	var lastSize int64
	seeded := false
	if st, err := os.Stat(path); err == nil {
		lastMod, lastSize, seeded = st.ModTime(), st.Size(), true
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		st, err := os.Stat(path)
		if err != nil {
			continue // absent or unreadable: keep serving, keep watching
		}
		if seeded && st.ModTime().Equal(lastMod) && st.Size() == lastSize {
			continue
		}
		lastMod, lastSize, seeded = st.ModTime(), st.Size(), true
		if _, _, err := r.Reload(ctx, path); err != nil {
			r.cfg.Logf("registry: watch reload of %s failed: %v", path, err)
		}
	}
}
