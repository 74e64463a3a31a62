// Package registry manages versioned model generations for hot reload.
//
// A Registry holds the live detector generation behind an atomic
// pointer (lock-free reads on the serving hot path) and serializes
// reloads: a candidate model is loaded in the background, scored on a
// golden set, and gated on sanity alone. Every candidate score must be
// finite, a panicking candidate (wrong tensor shape) is caught and
// rejected, and the candidate's golden recall must be at least half the
// live model's, so a collapsed model does not serve. The gate does not
// compare the two models more finely: on 64 golden clips it cannot tell
// a better retrain from a worse one (EXPERIMENTS.md, "The ship gate
// against its rule"), and probation after the swap watches how the new
// generation serves. Only a candidate that passes the gate is swapped
// in, and the generation it replaces stays the rollback target until
// the next swap. The registry stores generations, gates candidates and
// swaps or rolls back; it counts nothing on the serving path. Whoever
// watches a generation's serving outcomes (package serve) asks for its
// rollback.
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

	// golden is the detector's scores on the registry's golden set, kept
	// from when the gate scored it as a candidate, or from its first
	// reload as the live model for the boot generation; nil until then.
	// Read and written under the registry's lock.
	golden *goldenScores
}

// Verdict is the validation gate's decision on a candidate model.
type Verdict struct {
	OK     bool
	Reason string
	// Recall and false-alarm rate of live and candidate on the golden
	// set (NaN when the gate had no golden samples of that class or no
	// live baseline). The gate reads only the recalls; all four say why
	// a model shipped.
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
	// Golden is the labelled set the gate scores both models on. An
	// empty set reduces the gate to the finiteness and panic checks.
	Golden []core.LabeledClip
	// MaxRecallDrop is read by nothing. It stays only because bench/
	// sets it; the gate's one comparison is its recall floor.
	MaxRecallDrop float64
	// MaxFalseAlarmRise is read by nothing. It stays only because
	// bench/ sets it.
	MaxFalseAlarmRise float64
	// OnSwap is called with the new live generation after every swap
	// and rollback, under the registry's lock; servers use it to repoint
	// their serving path and reset what was measured on the old model.
	OnSwap func(gen *Generation)
	// Metrics receives hotspot_model_generation and
	// hotspot_reloads_total{outcome} (nil: not exported). Read in New, so
	// the gauge reads 1 before the first scrape and the first Reload is
	// counted.
	Metrics *telemetry.Registry
	// Logf receives swap and rollback notices (default: discard).
	Logf func(format string, args ...any)
}

// Registry is the versioned model store. Safe for concurrent use.
type Registry struct {
	cfg Config

	live atomic.Pointer[Generation]

	mu     sync.Mutex // serializes reload and rollback
	prev   *Generation
	nextID int64

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

// goldenScores is a detector's scores on the golden clips, or the error
// that stopped them.
type goldenScores struct {
	scores []float64
	err    error
}

// scoreGolden scores the golden clips under ctx, with panic
// containment: a candidate trained for a different tensor shape panics
// inside the forward pass, and that must read as a gate rejection, not
// a crash.
func scoreGolden(ctx context.Context, det core.Detector, clips []core.LabeledClip) (gs goldenScores) {
	defer func() {
		if rec := recover(); rec != nil {
			gs = goldenScores{err: fmt.Errorf("scoring panicked: %v", rec)}
		}
	}()
	raw := make([]float64, len(clips))
	for i, s := range clips {
		v, serr := det.Score(ctx, s.Clip)
		if serr != nil {
			return goldenScores{err: fmt.Errorf("golden clip %d: %w", i, serr)}
		}
		raw[i] = v
	}
	return goldenScores{scores: raw}
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

// judge is the gate's verdict on a candidate, given both models' golden
// scores, ls the live model's and cs the candidate's: every candidate
// score must be finite, and the candidate's golden recall must be at
// least half the live model's. The floor is skipped when either recall
// is undefined, or when the live model could not score the golden set.
func judge(live, cand core.Detector, golden []core.LabeledClip, ls, cs goldenScores,
	logf func(format string, args ...any)) Verdict {
	v := Verdict{LiveRecall: math.NaN(), CandRecall: math.NaN(), LiveFAR: math.NaN(), CandFAR: math.NaN()}
	if cs.err != nil {
		v.Reason = "candidate: " + cs.err.Error()
		return v
	}
	for i, s := range cs.scores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			v.Reason = fmt.Sprintf("candidate produced non-finite score %v on golden clip %d", s, i)
			return v
		}
	}
	if len(golden) == 0 {
		v.OK = true
		return v
	}
	if ls.err != nil {
		// A live model that cannot score the goldens gives the gate no
		// baseline; accept on candidate sanity alone rather than wedge
		// reloads forever.
		logf("registry: live model failed golden scoring (%v); gating on sanity only", ls.err)
		v.OK = true
		v.Reason = "no live baseline"
		return v
	}
	v.LiveRecall, v.LiveFAR = goldenStats(live, golden, ls.scores)
	v.CandRecall, v.CandFAR = goldenStats(cand, golden, cs.scores)
	if v.CandRecall < v.LiveRecall/2 { // false when either is NaN
		v.Reason = fmt.Sprintf("recall collapse: %.3f -> %.3f, below half the live model's",
			v.LiveRecall, v.CandRecall)
		return v
	}
	v.OK = true
	return v
}

// gate validates a candidate against the live generation on the
// registry's golden set, and returns the candidate's golden scores for
// it to keep if it goes live. A generation is scored on the golden set
// once, as the candidate or, for the boot generation, at the first gate,
// and keeps its scores: the set is the registry's for its lifetime. The
// scores' spans hang from ctx. Caller holds r.mu.
func (r *Registry) gate(ctx context.Context, live *Generation, cand core.Detector) (Verdict, *goldenScores) {
	if live.golden == nil {
		ls := scoreGolden(ctx, live.Detector, r.cfg.Golden)
		live.golden = &ls
	}
	cs := scoreGolden(ctx, cand, r.cfg.Golden)
	return judge(live.Detector, cand, r.cfg.Golden, *live.golden, cs, r.cfg.Logf), &cs
}

// ErrRejected wraps gate rejections so callers can map them to a
// distinct response (422 vs 500).
var ErrRejected = errors.New("registry: candidate rejected by validation gate")

// Reload loads the model at path, runs the validation gate against the
// live generation, and swaps the candidate in when it passes. The
// returned Verdict carries the gate numbers either way. On success the
// previous generation is retained for rollback until the next swap.
func (r *Registry) Reload(ctx context.Context, path string) (*Generation, Verdict, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	ctx, sp := trace.Start(ctx, "model.reload", trace.A("path", path))
	defer sp.End()

	cand, err := r.cfg.Loader(path)
	if err != nil {
		r.countReload("load_failed")
		err = fmt.Errorf("registry: load %s: %w", path, err)
		sp.SetError(err)
		return nil, Verdict{Reason: err.Error()}, err
	}
	live := r.live.Load()
	verdict, golden := r.gate(ctx, live, cand)
	sp.SetAttr("gate", verdict.String())
	if !verdict.OK {
		r.countReload("rejected")
		err := fmt.Errorf("%w: %s", ErrRejected, verdict.Reason)
		sp.SetError(err)
		return nil, verdict, err
	}

	r.nextID++
	gen := &Generation{ID: r.nextID, Source: path, Detector: cand, LoadedAt: time.Now(), golden: golden}
	r.prev = live
	r.goLive(gen)
	r.countReload("swapped")
	sp.SetAttrInt("generation", int(gen.ID))
	if r.cfg.OnSwap != nil {
		r.cfg.OnSwap(gen)
	}
	r.cfg.Logf("registry: swapped in generation %d from %s (%s)", gen.ID, path, verdict)
	return gen, verdict, nil
}

// Rollback restores the previous generation in place of from, and
// reports whether it did. It does nothing unless from is still live and
// a previous generation is kept, so a late outcome of a replaced
// generation, or a second request that saw the same failure, cannot
// roll back its successor. The restored generation has no rollback
// target of its own.
func (r *Registry) Rollback(from *Generation, reason string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.live.Load() != from || r.prev == nil {
		return false
	}
	restored := r.prev
	r.prev = nil
	r.goLive(restored)
	r.countReload("rolled_back")
	if r.cfg.OnSwap != nil {
		r.cfg.OnSwap(restored)
	}
	r.cfg.Logf("registry: rolled back generation %d -> %d: %s", from.ID, restored.ID, reason)
	return true
}
