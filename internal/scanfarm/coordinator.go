// The shard coordinator: fans deterministic shards out to a pool of
// in-process scan workers and survives everything short of losing the
// journal — worker panics, failing detectors, stuck windows (deadline
// budget), and process death (resume).
//
// Failure containment is layered per worker and per shard:
//
//   - panic isolation: a detector panic is recovered at the window
//     boundary and surfaces as that window's error;
//   - retry: a failed shard attempt is retried with jittered
//     exponential backoff up to MaxAttempts;
//   - quarantine: a shard that exhausts its attempts is recorded as
//     quarantined — with its bounds and last error — and the scan
//     continues, so one poison window costs its shard, not the run;
//   - breaker: each worker carries a circuit breaker over its attempt
//     outcomes; a worker seeing consecutive failures pauses for the
//     cool-down instead of hammering (and instead of burning healthy
//     shards' attempts while sick).
//
// Run cancellation (ctx) is not a failure: in-flight shards stop, the
// journal keeps every durable record, and a later Run with Completed
// from ResumeJournal finishes the rest with byte-identical findings.

package scanfarm

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/faultinject"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/qualitymon"
	"github.com/golitho/hsd/internal/resilience"
	"github.com/golitho/hsd/internal/telemetry"
	"github.com/golitho/hsd/internal/trace"
)

// Fault-injection sites for chaos tests.
const (
	// ShardAttemptSite fires at the start of every shard attempt.
	ShardAttemptSite = "scanfarm.shard.attempt"
	// WindowScoreSite fires before each window score (cache misses
	// only: a cache hit never runs the detector). Panics armed here are
	// recovered at the window boundary like detector panics.
	WindowScoreSite = "scanfarm.window.score"
)

// Quarantine describes one poison shard the scan gave up on.
type Quarantine struct {
	ShardID  int
	Bounds   geom.Rect
	Attempts int
	Err      string
}

// Result is the outcome of a scan-farm run.
type Result struct {
	// Findings are the flagged windows of every completed shard, in
	// deterministic order: ascending shard ID, then window-enumeration
	// order within the shard. With the default row-band sharding this
	// equals the global row-major window order.
	Findings []core.Finding
	// Shards is the plan's shard count; Windows the plan's window count.
	Shards, Windows int
	// Completed counts shards finished (this run plus resumed).
	Completed int
	// Resumed counts shards skipped because Completed records covered
	// them.
	Resumed int
	// Scanned counts the windows of the shards this run scanned to the
	// end: resumed and quarantined shards excluded. Scanned over the
	// run's wall time is the scan's windows/s.
	Scanned int
	// Quarantined lists poison shards in ascending shard ID order.
	Quarantined []Quarantine
	// Interrupted is set when ctx was cancelled before every shard
	// reached a terminal state; Cause is the context error.
	Interrupted bool
	Cause       error
	// Cache is the clip-cache snapshot (zero when the cache is off).
	Cache CacheStats
}

// farmMetrics bundles the coordinator's telemetry (nil handles, each
// call one nil check, when Config.Metrics is nil).
type farmMetrics struct {
	shardsDone        *telemetry.Counter // scan_shards_total{state="done"}
	shardsQuarantined *telemetry.Counter // scan_shards_total{state="quarantined"}
	shardsResumed     *telemetry.Counter // scan_shards_total{state="resumed"}
	attempts          *telemetry.Counter // scan_shard_attempts_total
	retries           *telemetry.Counter // scan_shard_retries_total
	cacheHits         *telemetry.Counter // scan_cache_hits_total
	cacheMisses       *telemetry.Counter // scan_cache_misses_total
	cacheEvictions    *telemetry.Counter // scan_cache_evictions_total
	quarantined       *telemetry.Gauge   // scan_quarantined_shards
	shardSeconds      *telemetry.Histogram
}

func newFarmMetrics(reg *telemetry.Registry) *farmMetrics {
	reg.SetHelp("scan_shards_total", "Shards by terminal state (done, quarantined, resumed).")
	reg.SetHelp("scan_shard_attempts_total", "Shard scan attempts, including retries.")
	reg.SetHelp("scan_shard_retries_total", "Shard attempts beyond each shard's first.")
	reg.SetHelp("scan_cache_hits_total", "Windows answered by the content-addressed clip cache.")
	reg.SetHelp("scan_cache_misses_total", "Windows that missed the clip cache and ran the detector.")
	reg.SetHelp("scan_cache_evictions_total", "Clip-cache LRU evictions.")
	reg.SetHelp("scan_shard_seconds", "Per-shard wall time of successful attempts.")
	reg.SetHelp("scan_quarantined_shards", "Shards quarantined by the most recent scan, resumed records included.")
	return &farmMetrics{
		shardsDone:        reg.Counter("scan_shards_total", telemetry.L("state", "done")),
		shardsQuarantined: reg.Counter("scan_shards_total", telemetry.L("state", "quarantined")),
		shardsResumed:     reg.Counter("scan_shards_total", telemetry.L("state", "resumed")),
		attempts:          reg.Counter("scan_shard_attempts_total"),
		retries:           reg.Counter("scan_shard_retries_total"),
		cacheHits:         reg.Counter("scan_cache_hits_total"),
		cacheMisses:       reg.Counter("scan_cache_misses_total"),
		cacheEvictions:    reg.Counter("scan_cache_evictions_total"),
		quarantined:       reg.Gauge("scan_quarantined_shards"),
		shardSeconds:      reg.Histogram("scan_shard_seconds", nil),
	}
}

func (m *farmMetrics) shard(state ShardState) {
	if state == ShardQuarantined {
		m.shardsQuarantined.Inc()
	} else {
		m.shardsDone.Inc()
	}
}

func (m *farmMetrics) attempt(n int) {
	m.attempts.Inc()
	if n > 1 {
		m.retries.Inc()
	}
}

func (m *farmMetrics) cache(hit, evicted bool) {
	if hit {
		m.cacheHits.Inc()
	} else {
		m.cacheMisses.Inc()
	}
	if evicted {
		m.cacheEvictions.Inc()
	}
}

// Run scans the chip through the shard coordinator and returns the
// deterministically merged findings. See the package comment for the
// failure-containment contract. Unlike core.Scan, a failing window
// never aborts the run: it fails its shard, which retries and is
// eventually quarantined.
func Run(ctx context.Context, chip *layout.Layout, det core.Detector, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	plan, err := newPlan(chip.Bounds(), cfg)
	if err != nil {
		return Result{}, fmt.Errorf("scanfarm: %w", err)
	}
	res := Result{Shards: plan.NumShards, Windows: plan.Windows()}
	if plan.NumShards == 0 {
		return res, nil
	}
	mets := newFarmMetrics(cfg.Metrics)
	var cache *ClipCache
	if cfg.CacheSize > 0 {
		cache = NewClipCache(cfg.CacheSize)
	}

	records := make([]*ShardRecord, plan.NumShards)
	var todo []int
	for id := 0; id < plan.NumShards; id++ {
		if rec, ok := cfg.Completed[id]; ok {
			r := rec
			records[id] = &r
			res.Resumed++
			mets.shardsResumed.Inc()
			continue
		}
		todo = append(todo, id)
	}

	// A journal that stops accepting records ends the run: shards scored
	// after that could not be resumed, so scoring them is wasted work.
	// runCtx gates dispatch only. Shards in flight finish under the
	// caller's ctx, because the window loop polls ctx.Err and a derived
	// context's Err takes a mutex the workers would contend on.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex // records, journal order
		journalErr error
	)
	finish := func(rec *ShardRecord) {
		mu.Lock()
		defer mu.Unlock()
		records[rec.ShardID] = rec
		if rec.State == ShardDone {
			r0, r1 := plan.ShardRowRange(rec.ShardID)
			res.Scanned += (r1 - r0) * plan.Cols
		}
		if cfg.Journal != nil && journalErr == nil {
			if journalErr = cfg.Journal.Append(*rec); journalErr != nil {
				cancel()
			}
		}
	}

	// Resolved here, not per window: most detectors format their name on
	// every call, and a cache hit must not pay for that.
	name, thr := det.Name(), det.Threshold()
	jobs := make(chan int)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := &worker{
				chip:    chip,
				det:     det,
				name:    name,
				thr:     thr,
				plan:    plan,
				cfg:     cfg,
				breaker: resilience.NewBreaker(cfg.Breaker),
				cache:   cache,
				mets:    mets,
				tiles:   newTileMemo(det, plan),
			}
			for {
				select {
				case <-runCtx.Done():
					return
				case id, ok := <-jobs:
					if !ok || runCtx.Err() != nil {
						return
					}
					if rec := wk.runShard(ctx, id); rec != nil {
						finish(rec)
					}
				}
			}
		}()
	}
dispatch:
	for _, id := range todo {
		select {
		case jobs <- id:
		case <-runCtx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	if journalErr != nil {
		return Result{}, fmt.Errorf("scanfarm: journal append: %w", journalErr)
	}
	for id, rec := range records {
		if rec == nil {
			continue // unprocessed: run was cancelled
		}
		res.Completed++
		switch rec.State {
		case ShardQuarantined:
			res.Quarantined = append(res.Quarantined, Quarantine{
				ShardID:  id,
				Bounds:   plan.ShardBounds(id),
				Attempts: rec.Attempts,
				Err:      rec.Err,
			})
		default:
			res.Findings = append(res.Findings, rec.Findings...)
		}
	}
	// Gauge, not counter: the CLI report's quarantine count for THIS
	// scan, resumed quarantine records included, readable from any
	// metrics scrape instead of only the process stdout.
	mets.quarantined.Set(float64(len(res.Quarantined)))
	if err := ctx.Err(); err != nil && res.Completed < plan.NumShards {
		res.Interrupted = true
		res.Cause = err
	}
	if cache != nil {
		res.Cache = cache.Stats()
	}
	return res, nil
}

// worker is the per-goroutine scan state: the shared detector with its
// name and threshold, a circuit breaker that outlives individual
// shards, and the buffers a shard attempt fills: its windows' scores
// and, when the scan shares feature tiles, the tile memo (else nil).
type worker struct {
	chip    *layout.Layout
	det     core.Detector
	name    string
	thr     float64
	plan    Plan
	cfg     Config
	breaker *resilience.Breaker
	cache   *ClipCache
	mets    *farmMetrics
	tiles   *tileMemo
	scores  []float64
}

// runShard drives one shard to a terminal state under the supervised-
// attempt loop: done after a successful attempt, quarantined after
// MaxAttempts failures. A nil return means the run was cancelled before
// the shard finished (the shard stays unrecorded and is rescanned on
// resume).
func (w *worker) runShard(ctx context.Context, id int) *ShardRecord {
	rcfg := w.cfg.Retry
	rcfg.MaxAttempts = w.cfg.MaxAttempts
	// Decorrelate jitter across shards while staying deterministic for
	// a fixed config.
	rcfg.Seed = rcfg.Seed*31 + int64(id) + 1

	var findings []core.Finding
	attempts, err := resilience.Supervise(ctx, rcfg, w.breaker, w.cfg.ShardBudget,
		func(ctx context.Context, n int) (err error) {
			w.mets.attempt(n)
			findings, err = w.scanShard(ctx, id, n)
			return err
		})
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		w.mets.shard(ShardQuarantined)
		return &ShardRecord{ShardID: id, State: ShardQuarantined, Attempts: attempts, Err: err.Error()}
	}
	w.mets.shard(ShardDone)
	return &ShardRecord{ShardID: id, State: ShardDone, Attempts: attempts, Findings: findings}
}

// scanShard is one attempt over every window of the shard. Any window
// failure (error, recovered panic, expired budget) aborts the attempt;
// cached verdicts make re-attempts cheap for the windows already scored.
//
// The sweep is column by column, so that a feature tile is last needed
// one column after it is first needed (see tiles.go). Scores land in the
// worker's rows x cols buffer and the findings are read off it in
// enumeration order, row-major, which is the order the journal, resume
// and the merge pin.
func (w *worker) scanShard(ctx context.Context, id, attempt int) ([]core.Finding, error) {
	if err := faultinject.Hit(ShardAttemptSite); err != nil {
		return nil, err
	}
	traced := !trace.Disabled(ctx)
	start := time.Now()
	sp := (*trace.Span)(nil)
	if traced {
		ctx, sp = trace.Start(ctx, "scan.shard")
		sp.SetAttrInt("shard", id)
		sp.SetAttrInt("attempt", attempt)
	}
	defer sp.End()

	r0, r1 := w.plan.ShardRowRange(id)
	cols := w.plan.Cols
	n := (r1 - r0) * cols
	if cap(w.scores) < n {
		w.scores = make([]float64, n)
	}
	scores := w.scores[:n]
	for col := 0; col < cols; col++ {
		w.tiles.startColumn(col)
		for row := r0; row < r1; row++ {
			center := w.plan.Center(col, row)
			if err := ctx.Err(); err != nil {
				sp.SetError(err)
				return nil, fmt.Errorf("scanfarm: shard %d window at %v: %w", id, center, err)
			}
			clip, err := w.chip.ClipAt(center, w.plan.ClipNM, w.plan.CoreFrac)
			if err != nil {
				sp.SetError(err)
				return nil, fmt.Errorf("scanfarm: shard %d window at %v: %w", id, center, err)
			}
			if w.cfg.SkipEmpty && len(clip.Shapes) == 0 {
				// Not scored: a NaN is below every threshold.
				scores[(row-r0)*cols+col] = math.NaN()
				continue
			}
			score, err := w.scoreWindow(ctx, clip, col, row-r0)
			if err != nil {
				sp.SetError(err)
				return nil, fmt.Errorf("scanfarm: shard %d window at %v: %w", id, center, err)
			}
			scores[(row-r0)*cols+col] = score
		}
	}
	var findings []core.Finding
	for i, score := range scores {
		if score >= w.thr {
			findings = append(findings, core.Finding{Center: w.plan.Center(i%cols, r0+i/cols), Score: score})
		}
	}
	w.mets.shardSeconds.ObserveDuration(time.Since(start))
	return findings, nil
}

// scoreWindow answers one window, consulting the clip cache before the
// detector. The detector always scores the canonical (origin
// translated) clip, so a verdict is a pure function of the cache key
// and hit/miss paths are identical by construction. The shipped
// detectors are translation-invariant (rasterization and features are
// window-relative), so this matches scoring the clip in place.
//
// clip.Shapes must be the caller's own (ClipAt builds it per call): it
// is canonicalised in place, where Clip.Translate would make a third
// copy of the window's shapes. col and row place the window in the
// shard for the tile memo, which only a miss touches.
func (w *worker) scoreWindow(ctx context.Context, clip layout.Clip, col, row int) (float64, error) {
	d := geom.Pt(-clip.Window.Min.X, -clip.Window.Min.Y)
	canon := layout.Clip{Window: clip.Window.Translate(d), Core: clip.Core.Translate(d), Shapes: clip.Shapes}
	for i, s := range canon.Shapes {
		canon.Shapes[i] = s.Translate(d)
	}
	var key layout.Fingerprint
	if w.cache != nil {
		key = canon.Fingerprint()
		if score, ok := w.cache.Get(key); ok {
			w.mets.cache(true, false)
			w.observeQuality(canon, score)
			return score, nil
		}
	}
	var (
		score float64
		err   error
	)
	if w.tiles != nil {
		score, err = core.ScoreWindowVector(ctx, WindowScoreSite, w.tiles.det, func() ([]float64, error) {
			return w.tiles.window(ctx, canon, col, row)
		})
	} else {
		score, err = core.ScoreWindow(ctx, WindowScoreSite, w.det, canon)
	}
	if err != nil {
		if w.cache != nil {
			w.mets.cache(false, false)
		}
		return 0, err
	}
	if w.cache != nil {
		evicted := w.cache.Put(key, score)
		w.mets.cache(false, evicted)
	}
	w.observeQuality(canon, score)
	return score, nil
}

// observeQuality feeds one scored window into the quality monitor as
// stage "scan". Cache hits are observed too — drift is a property of
// the scanned traffic, not of which windows happened to miss — and the
// canonical clip keeps spot-check sampling content-keyed.
func (w *worker) observeQuality(canon layout.Clip, score float64) {
	w.cfg.Quality.Observe(qualitymon.Event{
		Detector: w.name, Stage: "scan",
		Score: score, Threshold: w.thr,
		Clip: canon, HasClip: true,
	})
}
