// The shard coordinator: fans deterministic shards out to a pool of
// in-process scan workers and survives everything short of losing the
// journal — worker panics, failing detectors, and process death
// (resume).
//
// Failure containment is layered per window and per shard:
//
//   - panic isolation: a detector panic is recovered at the window
//     boundary and surfaces as that window's error;
//   - quarantine: a shard whose scan fails (an error or a recovered
//     panic) is recorded as quarantined — with its bounds and the
//     failing window's error — and the scan continues, so one poison
//     window costs its shard, not the run. A shard is scanned once: a
//     detector is a pure function of its clip and a refused window a
//     function of the chip, so a second scan would fail the same way.
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
	"github.com/golitho/hsd/internal/resilience"
	"github.com/golitho/hsd/internal/telemetry"
	"github.com/golitho/hsd/internal/trace"
)

// Fault-injection sites for chaos tests.
const (
	// ShardAttemptSite fires at the start of every shard scan.
	ShardAttemptSite = "scanfarm.shard.attempt"
	// WindowScoreSite fires before each window score (cache misses
	// only: a cache hit never runs the detector). Panics armed here are
	// recovered at the window boundary like detector panics.
	WindowScoreSite = "scanfarm.window.score"
)

// Quarantine describes one poison shard the scan gave up on.
type Quarantine struct {
	ShardID int
	Bounds  geom.Rect
	Err     string
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
	cacheHits         *telemetry.Counter // scan_cache_hits_total
	cacheMisses       *telemetry.Counter // scan_cache_misses_total
	cacheEvictions    *telemetry.Counter // scan_cache_evictions_total
	journalCommits    *telemetry.Counter // scan_journal_commits_total
	quarantined       *telemetry.Gauge   // scan_quarantined_shards
	shardSeconds      *telemetry.Histogram
}

func newFarmMetrics(reg *telemetry.Registry) *farmMetrics {
	reg.SetHelp("scan_shards_total", "Shards by terminal state (done, quarantined, resumed).")
	reg.SetHelp("scan_cache_hits_total", "Windows answered by the content-addressed clip cache.")
	reg.SetHelp("scan_cache_misses_total", "Windows that missed the clip cache and ran the detector.")
	reg.SetHelp("scan_cache_evictions_total", "Clip-cache LRU evictions.")
	reg.SetHelp("scan_journal_commits_total", "Groups of shard records appended to the scan journal, each with one fsync.")
	reg.SetHelp("scan_shard_seconds", "Per-shard wall time of successful scans.")
	reg.SetHelp("scan_quarantined_shards", "Shards quarantined by the most recent scan, resumed records included.")
	return &farmMetrics{
		shardsDone:        reg.Counter("scan_shards_total", telemetry.L("state", "done")),
		shardsQuarantined: reg.Counter("scan_shards_total", telemetry.L("state", "quarantined")),
		shardsResumed:     reg.Counter("scan_shards_total", telemetry.L("state", "resumed")),
		cacheHits:         reg.Counter("scan_cache_hits_total"),
		cacheMisses:       reg.Counter("scan_cache_misses_total"),
		cacheEvictions:    reg.Counter("scan_cache_evictions_total"),
		journalCommits:    reg.Counter("scan_journal_commits_total"),
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

// cache adds one run's clip-cache counts: the cache is the counts'
// home, and the series get them once per run.
func (m *farmMetrics) cache(st CacheStats) {
	m.cacheHits.Add(float64(st.Hits))
	m.cacheMisses.Add(float64(st.Misses))
	m.cacheEvictions.Add(float64(st.Evictions))
}

// Run scans the chip through the shard coordinator and returns the
// deterministically merged findings. See the package comment for the
// failure-containment contract, the only one in the tree: a failing
// window never aborts the run, it fails its shard, which is quarantined.
func Run(ctx context.Context, chip *layout.Layout, det core.Detector, cfg Config) (res Result, err error) {
	cfg = cfg.withDefaults()
	plan, err := newPlan(chip.Bounds(), cfg)
	if err != nil {
		return Result{}, fmt.Errorf("scanfarm: %w", err)
	}
	res = Result{Shards: plan.NumShards, Windows: plan.Windows()}
	if plan.NumShards == 0 {
		return res, nil
	}
	mets := newFarmMetrics(cfg.Metrics)
	var cache *ClipCache
	if cfg.CacheSize > 0 {
		cache = NewClipCache(cfg.CacheSize)
		// However Run returns, the result and the series get the run's
		// counts, once.
		defer func() {
			res.Cache = cache.Stats()
			mets.cache(res.Cache)
		}()
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
		wg sync.WaitGroup
		mu sync.Mutex // records, res.Scanned
	)
	commits := startCommitter(cfg.Journal, cancel, len(todo), resilience.Real, mets.journalCommits)
	finish := func(rec *ShardRecord) {
		mu.Lock()
		records[rec.ShardID] = rec
		if rec.State == ShardDone {
			r0, r1 := plan.ShardRowRange(rec.ShardID)
			res.Scanned += (r1 - r0) * plan.Cols
		}
		mu.Unlock()
		commits.add(*rec)
	}

	thr := det.Threshold()
	jobs := make(chan int)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := &worker{
				chip:  chip,
				det:   det,
				thr:   thr,
				plan:  plan,
				cfg:   cfg,
				cache: cache,
				table: newClipTable(cache),
				mets:  mets,
				tiles: newTileMemo(det, plan),
			}
			// Before wg.Done, so that Run's snapshot has every hit.
			defer wk.table.fold(cache)
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

	// Every finish has run: once the committer stops, every shard
	// counted below is durable.
	if err := commits.close(); err != nil {
		return Result{}, fmt.Errorf("scanfarm: journal append: %w", err)
	}
	// The findings are counted first, so the merge allocates once.
	found := 0
	for _, rec := range records {
		if rec != nil && rec.State != ShardQuarantined {
			found += len(rec.Findings)
		}
	}
	if found > 0 {
		res.Findings = make([]core.Finding, 0, found)
	}
	for id, rec := range records {
		if rec == nil {
			continue // unprocessed: run was cancelled
		}
		res.Completed++
		switch rec.State {
		case ShardQuarantined:
			res.Quarantined = append(res.Quarantined, Quarantine{
				ShardID: id,
				Bounds:  plan.ShardBounds(id),
				Err:     rec.Err,
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
	return res, nil
}

// commitAge is how long a finished shard's record waits for the group
// it is committed in. A group is one append with one fsync, so the
// fsyncs of a scan number about its time over commitAge, plus the run's
// first group and its last, whatever its shard count; a kill loses at
// most commitAge of finished shards, which a resume rescans.
const commitAge = 10 * time.Millisecond

// committer appends finished shards' records to the journal in groups,
// on its own goroutine. A worker hands its record over and takes its
// next shard at once. The run's first group is tried as soon as the
// committer runs, and a worker that hands a record over before that
// try waits for it, so that a journal that takes no records ends the
// run after a shard or two. After it, the committer appends every
// pending record as one group, with one fsync, once the oldest of them
// is commitAge old, on the run's one timer, or at once when close runs.
// A journal that fails later ends the run at the next group. A nil
// committer (no journal) takes nothing.
type committer struct {
	journal *Journal
	stop    context.CancelFunc // called on the first failed append
	clock   resilience.Clock
	commits *telemetry.Counter // scan_journal_commits_total
	mu      sync.Mutex         // pending, oldest
	pending []ShardRecord
	oldest  time.Time // when the first of pending was added
	// wake holds at most one token. A record put in pending is followed
	// by a token, or by a committer that has yet to take pending.
	wake  chan struct{}
	tried chan struct{} // closed once the first group has been tried
	done  chan struct{}
	err   error // the first failed append; read after done closes
}

// startCommitter starts the committer of a run that scans n shards.
// Its two record lists, the one the workers fill and the one it
// appends, each have room for all n, so that what they allocate is a
// function of the plan, not of the groups a run happens to form.
func startCommitter(j *Journal, stop context.CancelFunc, n int, clock resilience.Clock, commits *telemetry.Counter) *committer {
	if j == nil {
		return nil
	}
	c := &committer{journal: j, stop: stop, clock: clock, commits: commits, pending: make([]ShardRecord, 0, n),
		wake: make(chan struct{}, 1), tried: make(chan struct{}), done: make(chan struct{})}
	go c.run(make([]ShardRecord, 0, n))
	return c
}

func (c *committer) run(group []ShardRecord) {
	defer close(c.done)
	_, open := <-c.wake
	group = c.commit(group)
	close(c.tried)
	var (
		timer resilience.Timer // made at the first wait, re-armed after
		due   <-chan time.Time // non-nil while the timer is armed
	)
	for open {
		select {
		case _, open = <-c.wake:
			if open {
				if due == nil {
					c.mu.Lock()
					waiting, wait := len(c.pending) > 0, commitAge-c.clock.Now().Sub(c.oldest)
					c.mu.Unlock()
					if waiting {
						if timer == nil {
							timer = c.clock.NewTimer(wait)
						} else {
							timer.Reset(wait)
						}
						due = timer.C()
					}
				}
				continue
			}
		case <-due:
			due = nil
		}
		group = c.commit(group)
	}
	if timer != nil {
		timer.Stop()
	}
}

// commit appends what is pending as one group, unless an append has
// failed, and hands group's emptied list back to be the next group.
func (c *committer) commit(group []ShardRecord) []ShardRecord {
	c.mu.Lock()
	group, c.pending = c.pending, group[:0]
	c.mu.Unlock()
	if len(group) == 0 || c.err != nil {
		return group
	}
	if c.err = c.journal.Append(group...); c.err != nil {
		c.stop()
	} else {
		c.commits.Inc()
	}
	return group
}

// add queues rec for the next group; before the first group has been
// tried, it waits for that.
func (c *committer) add(rec ShardRecord) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if len(c.pending) == 0 {
		c.oldest = c.clock.Now()
	}
	c.pending = append(c.pending, rec)
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
	<-c.tried
}

// close commits what is pending at once, once every add has returned,
// and returns the first failed append's error: with a nil error, every
// record added is durable.
func (c *committer) close() error {
	if c == nil {
		return nil
	}
	close(c.wake)
	<-c.done
	return c.err
}

// worker is the per-goroutine scan state: the shared detector with its
// threshold, the shared clip cache with the worker's own table in front
// of it (both nil when the cache is off), and the buffers a shard
// scan fills: its windows' scores and, when the scan shares feature
// tiles, the tile memo (else nil).
type worker struct {
	chip   *layout.Layout
	det    core.Detector
	thr    float64
	plan   Plan
	cfg    Config
	cache  *ClipCache
	table  *clipTable
	mets   *farmMetrics
	tiles  *tileMemo
	scores []float64
}

// runShard drives one shard to a terminal state: done after a
// successful scan, quarantined after a failed one. A nil return means
// the run was cancelled before the shard finished (the shard stays
// unrecorded and is rescanned on resume).
func (w *worker) runShard(ctx context.Context, id int) *ShardRecord {
	findings, err := w.scanShard(ctx, id)
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		w.mets.shard(ShardQuarantined)
		return &ShardRecord{ShardID: id, State: ShardQuarantined, Attempts: 1, Err: err.Error()}
	}
	w.mets.shard(ShardDone)
	return &ShardRecord{ShardID: id, State: ShardDone, Attempts: 1, Findings: findings}
}

// scanShard scans every window of the shard. Any window failure (an
// error or a recovered panic) fails the scan.
//
// The sweep is column by column, so that a feature tile is last needed
// one column after it is first needed (see tiles.go). Scores land in the
// worker's rows x cols buffer and the findings are read off it in
// enumeration order, row-major, which is the order the journal, resume
// and the merge pin.
func (w *worker) scanShard(ctx context.Context, id int) ([]core.Finding, error) {
	if err := faultinject.Hit(ShardAttemptSite); err != nil {
		return nil, err
	}
	traced := !trace.Disabled(ctx)
	start := time.Now()
	sp := (*trace.Span)(nil)
	if traced {
		ctx, sp = trace.Start(ctx, "scan.shard")
		sp.SetAttrInt("shard", id)
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
			score, err := w.scoreWindow(ctx, center, col, row-r0)
			if err != nil {
				sp.SetError(err)
				return nil, fmt.Errorf("scanfarm: shard %d window at %v: %w", id, center, err)
			}
			scores[(row-r0)*cols+col] = score
		}
	}
	// Counted first, so the shard's findings are one allocation.
	flagged := 0
	for _, score := range scores {
		if score >= w.thr {
			flagged++
		}
	}
	var findings []core.Finding
	if flagged > 0 {
		findings = make([]core.Finding, 0, flagged)
	}
	for i, score := range scores {
		if score >= w.thr {
			findings = append(findings, core.Finding{Center: w.plan.Center(i%cols, r0+i/cols), Score: score})
		}
	}
	w.mets.shardSeconds.ObserveDuration(time.Since(start))
	return findings, nil
}

// scoreWindow answers the window centred at center, consulting the clip
// cache before the detector. It returns NaN, which is below every
// threshold, for a window SkipEmpty leaves unscored.
//
// The cache key comes straight from the spatial index (FingerprintAt),
// so a hit builds no clip, and a repeat the worker's table holds takes
// no lock. The detector always scores the canonical (origin translated)
// clip, so a verdict is a pure function of the cache key and hit/miss
// paths are identical by construction. The shipped detectors are
// translation-invariant (rasterization and features are
// window-relative), so this matches scoring the clip in place. col and row place the window in the
// shard for the tile memo, which only a miss touches.
func (w *worker) scoreWindow(ctx context.Context, center geom.Point, col, row int) (float64, error) {
	var key layout.Fingerprint
	if w.cache != nil {
		fp, shapes, err := w.chip.FingerprintAt(center, w.plan.ClipNM, w.plan.CoreFrac)
		if err != nil {
			return 0, err
		}
		if w.cfg.SkipEmpty && shapes == 0 {
			return math.NaN(), nil
		}
		key = fp
		if score, ok := w.table.get(w.cache, key); ok {
			return score, nil
		}
	}
	canon, err := w.canonClip(center)
	if err != nil {
		return 0, err
	}
	if w.cfg.SkipEmpty && len(canon.Shapes) == 0 {
		return math.NaN(), nil
	}
	score, err := w.scoreMiss(ctx, canon, col, row)
	if err != nil {
		return 0, err
	}
	if w.cache != nil {
		w.table.put(w.cache, key, score)
	}
	return score, nil
}

// scoreMiss runs the detector on a window the cache could not answer:
// WindowScoreSite fires first, once, and then the score runs, from the
// tile memo when the worker has one and from the clip otherwise. A
// panic under any of it, the site's, the detector's or the memo's,
// fails the window with an error instead of the run, so a poison
// window costs its shard (see runShard).
func (w *worker) scoreMiss(ctx context.Context, canon layout.Clip, col, row int) (score float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("detector panic: %v", r)
		}
	}()
	if err := faultinject.Hit(WindowScoreSite); err != nil {
		return 0, err
	}
	if w.tiles == nil {
		return w.det.Score(ctx, canon)
	}
	win, err := w.tiles.conv1Window(ctx, canon, col, row)
	if err != nil {
		return 0, err
	}
	return w.tiles.det.ScoreConv1(ctx, win), nil
}

// canonClip is the window centred at center moved to the origin. ClipAt
// builds the clip's shapes per call, so they are moved in place, where
// Clip.Translate would make a second copy.
func (w *worker) canonClip(center geom.Point) (layout.Clip, error) {
	clip, err := w.chip.ClipAt(center, w.plan.ClipNM, w.plan.CoreFrac)
	if err != nil {
		return layout.Clip{}, err
	}
	d := geom.Pt(-clip.Window.Min.X, -clip.Window.Min.Y)
	for i, s := range clip.Shapes {
		clip.Shapes[i] = s.Translate(d)
	}
	return layout.Clip{Window: clip.Window.Translate(d), Core: clip.Core.Translate(d), Shapes: clip.Shapes}, nil
}
