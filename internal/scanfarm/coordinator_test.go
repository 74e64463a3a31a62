package scanfarm

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/faultinject"
	"github.com/golitho/hsd/internal/framelog"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/telemetry"
)

var errTransient = errors.New("transient worker failure")

// TestFarmMatchesCoreScan pins the farm's most load-bearing property:
// the sharded, pooled, cached scan produces exactly the findings of the
// plain single-process core.ScanCtx, in the same global row-major
// order.
func TestFarmMatchesCoreScan(t *testing.T) {
	chip := testChip(t, 8)
	det := densityDetector{thr: 0.5}
	cfg := Config{SkipEmpty: true, Workers: 4, ShardRows: 2}
	want := referenceFindings(t, chip, det, cfg)
	if len(want) == 0 {
		t.Fatal("reference scan flagged nothing; test chip is broken")
	}

	res, err := Run(context.Background(), chip, det, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted || len(res.Quarantined) != 0 {
		t.Fatalf("clean run interrupted=%v quarantined=%d", res.Interrupted, len(res.Quarantined))
	}
	if res.Scanned != res.Windows || res.Windows == 0 {
		t.Fatalf("clean run scanned %d of %d windows", res.Scanned, res.Windows)
	}
	if !reflect.DeepEqual(res.Findings, want) {
		t.Fatalf("farm findings diverge from core scan:\nfarm %v\ncore %v", res.Findings, want)
	}
	if res.Completed != res.Shards {
		t.Fatalf("completed %d of %d shards", res.Completed, res.Shards)
	}
}

// TestFarmDeterministicMerge is the completion-order property test:
// whatever the schedule — worker count, shard size, cache on or off —
// the merged findings slice never changes, and under injected faults it
// loses exactly the shards the faults fired in.
func TestFarmDeterministicMerge(t *testing.T) {
	defer faultinject.Reset()
	chip := testChip(t, 10)
	det := densityDetector{thr: 0.5}
	base := Config{SkipEmpty: true}
	want := referenceFindings(t, chip, det, base)

	cases := []struct {
		name      string
		workers   int
		shardRows int
		cacheSize int
		faults    int // WindowScoreSite errors to arm
	}{
		{"serial", 1, 1, 0, 0},
		{"pooled", 4, 1, 0, 0},
		{"wide-shards", 3, 4, 0, 0},
		{"cached", 4, 2, 4096, 0},
		{"cached-tiny", 2, 3, 8, 0},
		// A faulted shard is quarantined, not rescanned.
		{"retries", 4, 2, 0, 2},
		{"retries-cached", 3, 1, 1024, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			faultinject.Reset()
			if tc.faults > 0 {
				// Each armed error fails one window score, and with it
				// that shard.
				faultinject.Set(WindowScoreSite, faultinject.Fault{
					Err: errTransient, Count: tc.faults, Skip: 3,
				})
			}
			cfg := base
			cfg.Workers = tc.workers
			cfg.ShardRows = tc.shardRows
			cfg.CacheSize = tc.cacheSize
			res, err := Run(context.Background(), chip, det, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkFaulted(t, NewPlan(chip.Bounds(), cfg), res, want, WindowScoreSite, errTransient.Error())
		})
	}
}

// TestFarmQuarantinesPoisonShard: a permanently panicking region costs
// its shard — reported with bounds and the panic message — never the
// run, and every other shard's findings survive.
func TestFarmQuarantinesPoisonShard(t *testing.T) {
	chip := testChip(t, 8)
	// Drop a poison marker in one tile; every window seeing it panics.
	if err := chip.AddRect(poisonRect(3*1024+50, 5*1024+50)); err != nil {
		t.Fatal(err)
	}
	inner := densityDetector{thr: 0.5}
	cfg := Config{SkipEmpty: true, Workers: 4, ShardRows: 1}
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	res, err := Run(context.Background(), chip, &poisonDetector{inner: inner}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) == 0 {
		t.Fatal("poison shard was not quarantined")
	}
	if res.Completed != res.Shards {
		t.Fatalf("quarantine did not complete the run: %d of %d shards", res.Completed, res.Shards)
	}
	for _, q := range res.Quarantined {
		if q.Err == "" || q.Bounds.Empty() {
			t.Fatalf("quarantine report incomplete: %+v", q)
		}
	}

	// Every reference finding outside the quarantined shards survives,
	// and nothing extra appears.
	plan := NewPlan(chip.Bounds(), cfg)
	if lost := len(res.Quarantined) * plan.Cols; res.Scanned != res.Windows-lost { // ShardRows is 1
		t.Fatalf("scanned %d windows, want %d less the %d quarantined", res.Scanned, res.Windows, lost)
	}
	want := outsideQuarantine(plan, referenceFindings(t, chip, inner, cfg), res.Quarantined)
	if !reflect.DeepEqual(res.Findings, want) {
		t.Fatalf("lost findings outside quarantined shards:\ngot  %v\nwant %v", res.Findings, want)
	}

	// The quarantine is visible in telemetry: the per-run gauge matches
	// the CLI report, and the terminal-state counter agrees.
	if got := counterValue(t, reg, "scan_shards_total", "state", "quarantined"); got != float64(len(res.Quarantined)) {
		t.Fatalf("scan_shards_total{state=quarantined} = %v, want %d", got, len(res.Quarantined))
	}
	if got := counterValue(t, reg, "scan_quarantined_shards"); got != float64(len(res.Quarantined)) {
		t.Fatalf("scan_quarantined_shards = %v, want %d", got, len(res.Quarantined))
	}

	// A resumed run carries the quarantine records forward, and the
	// gauge reflects them even though no shard ran this time.
	completed := map[int]ShardRecord{}
	for _, q := range res.Quarantined {
		completed[q.ShardID] = ShardRecord{
			ShardID: q.ShardID, State: ShardQuarantined, Attempts: 1, Err: q.Err,
		}
	}
	plan2 := NewPlan(chip.Bounds(), cfg)
	for id := 0; id < plan2.NumShards; id++ {
		if _, ok := completed[id]; !ok {
			completed[id] = ShardRecord{ShardID: id, State: ShardDone}
		}
	}
	cfg2 := cfg
	reg2 := telemetry.NewRegistry()
	cfg2.Metrics = reg2
	cfg2.Completed = completed
	res2, err := Run(context.Background(), chip, &poisonDetector{inner: inner}, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != res2.Shards || res2.Scanned != 0 {
		t.Fatalf("resume ran shards: resumed %d of %d, scanned %d windows", res2.Resumed, res2.Shards, res2.Scanned)
	}
	if got := counterValue(t, reg2, "scan_quarantined_shards"); got != float64(len(res.Quarantined)) {
		t.Fatalf("resumed scan_quarantined_shards = %v, want %d", got, len(res.Quarantined))
	}
}

// TestFarmScoresPoisonWindowOncePerShard: a shard is scanned once. A
// poison marker lies whole in windows of several one-row shards, and
// with the cache off every such window reaches the detector, which
// panics on each. So each shard holding one is quarantined after one
// panicking call, at the first such window of its sweep, and the
// quarantine names that window.
func TestFarmScoresPoisonWindowOncePerShard(t *testing.T) {
	chip := testChip(t, 8)
	marker := poisonRect(3*1024+50, 5*1024+300)
	if err := chip.AddRect(marker); err != nil {
		t.Fatal(err)
	}
	det := &poisonDetector{inner: densityDetector{thr: 0.5}}
	cfg := Config{SkipEmpty: true, Workers: 1, ShardRows: 1}
	res, err := Run(context.Background(), chip, det, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) < 2 || res.Interrupted || res.Completed != res.Shards {
		t.Fatalf("quarantined %+v, interrupted=%v, %d of %d shards; want the marker's shards",
			res.Quarantined, res.Interrupted, res.Completed, res.Shards)
	}
	if calls := det.panics.Load(); calls != int64(len(res.Quarantined)) {
		t.Fatalf("the detector panicked %d times over %d quarantined shards, want once a shard", calls, len(res.Quarantined))
	}
	plan := NewPlan(chip.Bounds(), cfg)
	half := plan.ClipNM / 2
	for _, q := range res.Quarantined {
		at := quarantinedWindow(t, plan, q)
		if win := geom.R(at.X-half, at.Y-half, at.X+half, at.Y+half); !win.ContainsRect(marker) {
			t.Fatalf("quarantine %+v names a window without the whole marker", q)
		}
	}
}

// TestFarmCacheHitsOnRepeatedCells: on a repeated-standard-cell layout
// the cache answers most windows, and cached verdicts are identical to
// the uncached scan's.
func TestFarmCacheHitsOnRepeatedCells(t *testing.T) {
	chip := cellChip(t, 10)
	det := densityDetector{thr: 0.1}
	cfg := Config{SkipEmpty: true, Workers: 1, ShardRows: 2}

	uncached, err := Run(context.Background(), chip, det, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(uncached.Findings) == 0 {
		t.Fatal("cell chip flagged nothing; test layout is broken")
	}

	reg := telemetry.NewRegistry()
	cfg.CacheSize = 1 << 16
	cfg.Metrics = reg
	cached, err := Run(context.Background(), chip, det, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cached.Findings, uncached.Findings) {
		t.Fatal("cache hit path changed verdicts")
	}
	if hr := cached.Cache.HitRate(); hr <= 0.5 {
		t.Fatalf("hit rate %.2f on repeated-cell layout, want > 0.5 (stats %+v)", hr, cached.Cache)
	}
	if got := counterValue(t, reg, "scan_cache_hits_total"); got != float64(cached.Cache.Hits) {
		t.Fatalf("scan_cache_hits_total = %v, stats %d", got, cached.Cache.Hits)
	}
}

// TestFarmCacheSeriesMatchResult: the clip cache is the one home of a
// run's hit, miss and eviction counts, and Run adds them to the
// scan_cache_*_total series once, however it returns. So the series move
// by exactly Result.Cache after a completed run, a cancelled run and a
// run whose journal append fails. A completed run, at 1, 2 and 8
// workers, with the shared cache smaller than the chip's distinct keys
// so that it evicts keys the workers' tables still answer, also finds
// what the serial uncached run finds and counts every window that
// reaches the cache once, as a hit or a miss.
func TestFarmCacheSeriesMatchResult(t *testing.T) {
	chip := cellChip(t, 10)
	det := densityDetector{thr: 0.1}
	reg := telemetry.NewRegistry()
	// Fewer entries than the chip has distinct windows, so it evicts.
	cfg := Config{SkipEmpty: true, Workers: 2, ShardRows: 1, CacheSize: 8, Metrics: reg}
	closed, err := CreateJournal(filepath.Join(t.TempDir(), "scan.journal"), cfg.Meta(chip, det.Name()))
	if err != nil {
		t.Fatal(err)
	}
	if err := closed.Close(); err != nil { // every Append now fails
		t.Fatal(err)
	}
	series := func() CacheStats {
		return CacheStats{
			Hits:      int64(reg.Counter("scan_cache_hits_total").Value()),
			Misses:    int64(reg.Counter("scan_cache_misses_total").Value()),
			Evictions: int64(reg.Counter("scan_cache_evictions_total").Value()),
		}
	}
	plan := NewPlan(chip.Bounds(), cfg)
	windows := int64(plan.Windows())
	// The windows that reach the cache: SkipEmpty answers the empty ones
	// before it.
	var keyed int64
	keys := map[layout.Fingerprint]bool{}
	for row := 0; row < plan.Rows; row++ {
		for col := 0; col < plan.Cols; col++ {
			fp, n, err := chip.FingerprintAt(plan.Center(col, row), plan.ClipNM, plan.CoreFrac)
			if err != nil {
				t.Fatal(err)
			}
			if n > 0 {
				keyed++
				keys[fp] = true
			}
		}
	}
	if len(keys) <= cfg.CacheSize {
		t.Fatalf("fixture: %d distinct keys, want more than the cache's %d", len(keys), cfg.CacheSize)
	}
	serial := cfg
	serial.Workers, serial.CacheSize, serial.Metrics = 1, 0, nil
	want, err := Run(context.Background(), chip, det, serial)
	if err != nil || len(want.Findings) == 0 {
		t.Fatalf("serial uncached run: %d findings, err %v", len(want.Findings), err)
	}
	completed := func(res Result, err error) error {
		if err != nil || res.Completed != res.Shards {
			return fmt.Errorf("completed %d of %d shards, err %v", res.Completed, res.Shards, err)
		}
		if res.Cache.Hits == 0 || res.Cache.Misses == 0 || res.Cache.Evictions == 0 {
			return fmt.Errorf("cache stats %+v: want hits, misses and evictions", res.Cache)
		}
		if got := res.Cache.Hits + res.Cache.Misses; got != keyed {
			return fmt.Errorf("cache counted %d hits and misses, want one for each of the %d keyed windows", got, keyed)
		}
		if !reflect.DeepEqual(res.Findings, want.Findings) {
			return fmt.Errorf("findings diverged from the serial uncached run:\ngot  %v\nwant %v", res.Findings, want.Findings)
		}
		return nil
	}
	for _, tc := range []struct {
		name    string
		workers int
		ctx     context.Context
		journal *Journal
		check   func(Result, error) error
	}{
		{"completed", 2, context.Background(), nil, completed},
		{"completed-1-worker", 1, context.Background(), nil, completed},
		{"completed-8-workers", 8, context.Background(), nil, completed},
		{"cancelled", 2, cancelAfterPolls(context.Background(), windows/3), nil, func(res Result, err error) error {
			if err != nil || !res.Interrupted {
				return fmt.Errorf("interrupted %v, err %v; want an interrupted run", res.Interrupted, err)
			}
			return nil
		}},
		{"journal-append-fails", 2, context.Background(), closed, func(_ Result, err error) error {
			if err == nil || !strings.Contains(err.Error(), "journal append") {
				return fmt.Errorf("err %v, want the journal append error", err)
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := series()
			run := cfg
			run.Workers = tc.workers
			run.Journal = tc.journal
			res, err := Run(tc.ctx, chip, det, run)
			if err := tc.check(res, err); err != nil {
				t.Fatal(err)
			}
			after := series()
			got := CacheStats{
				Hits:      after.Hits - before.Hits,
				Misses:    after.Misses - before.Misses,
				Evictions: after.Evictions - before.Evictions,
			}
			want := CacheStats{Hits: res.Cache.Hits, Misses: res.Cache.Misses, Evictions: res.Cache.Evictions}
			if got != want || want.Misses == 0 {
				t.Fatalf("series moved by %+v, Result.Cache holds %+v", got, want)
			}
		})
	}
}

// TestFarmCancelIsResumable: cancelling mid-run is not an error, leaves
// the journal with only terminal records, and resuming completes the
// scan with findings identical to an uninterrupted run. A scan the
// cancellation cuts short is not quarantined: the shard is left for the
// resume.
func TestFarmCancelIsResumable(t *testing.T) {
	chip := testChip(t, 10)
	det := densityDetector{thr: 0.5}
	cfg := Config{SkipEmpty: true, Workers: 2, ShardRows: 1}
	want := referenceFindings(t, chip, det, cfg)
	meta := cfg.Meta(chip, det.Name())

	path := t.TempDir() + "/scan.journal"
	j, err := CreateJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cfg.Journal = j
	res, err := Run(ctx, chip, &cancelAfter{Detector: det, cut: 130, cancel: cancel}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if !res.Interrupted || res.Completed == 0 {
		t.Fatalf("cancel after 130 scored clips left %d shards done, interrupted=%v; want a scan cut mid-run",
			res.Completed, res.Interrupted)
	}
	if len(res.Quarantined) != 0 {
		t.Fatalf("the cut run quarantined %+v; want none", res.Quarantined)
	}

	j2, completed, err := ResumeJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(completed) != res.Completed {
		t.Fatalf("journal has %d records, run completed %d", len(completed), res.Completed)
	}
	cfg.Journal = j2
	cfg.Completed = completed
	res2, err := Run(context.Background(), chip, det, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Interrupted {
		t.Fatal("resumed run interrupted")
	}
	if res2.Resumed != len(completed) {
		t.Fatalf("resumed %d shards, want %d", res2.Resumed, len(completed))
	}
	// Windows/s is over what each run scanned itself: the two runs
	// split the chip's windows between them, resumed shards uncounted.
	if res.Scanned == 0 || res2.Scanned == 0 || res.Scanned+res2.Scanned != res2.Windows {
		t.Fatalf("scanned %d then %d windows of %d", res.Scanned, res2.Scanned, res2.Windows)
	}
	if !reflect.DeepEqual(res2.Findings, want) {
		t.Fatalf("resumed findings diverge:\ngot  %v\nwant %v", res2.Findings, want)
	}
}

// TestFarmCancelJournalsEveryCompletedShard: the committer appends in
// groups behind the workers, and a Run cut mid-scan still returns only
// once every shard it counted as completed is in the journal, exactly
// once, with the findings the Result merged from it.
func TestFarmCancelJournalsEveryCompletedShard(t *testing.T) {
	chip := testChip(t, 16)
	det := densityDetector{thr: 0.5}
	for _, workers := range []int{1, 2, 3} {
		for _, cut := range []int64{100, 400, 700} {
			cfg := Config{SkipEmpty: true, Workers: workers, ShardRows: 1}
			path := filepath.Join(t.TempDir(), "scan.journal")
			meta := cfg.Meta(chip, det.Name())
			j, err := CreateJournal(path, meta)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Journal = j
			ctx, cancel := context.WithCancel(context.Background())
			res, err := Run(ctx, chip, &cancelAfter{Detector: det, cut: cut, cancel: cancel}, cfg)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if !res.Interrupted || res.Completed == 0 || res.Completed == res.Shards {
				t.Fatalf("workers %d, cut %d: %d of %d shards completed, interrupted=%v; want a scan cut mid-run",
					workers, cut, res.Completed, res.Shards, res.Interrupted)
			}
			_, recs, tail, err := framelog.Load[Meta, ShardRecord](path, journalFormat)
			if err != nil || tail.Discarded != 0 {
				t.Fatalf("load: tail %+v, err %v", tail, err)
			}
			if len(recs) != res.Completed {
				t.Fatalf("workers %d, cut %d: the journal holds %d records, Run completed %d shards",
					workers, cut, len(recs), res.Completed)
			}
			sort.Slice(recs, func(a, b int) bool { return recs[a].ShardID < recs[b].ShardID })
			var findings []core.Finding
			for i, rec := range recs {
				if i > 0 && recs[i-1].ShardID == rec.ShardID {
					t.Fatalf("workers %d, cut %d: shard %d journaled twice", workers, cut, rec.ShardID)
				}
				findings = append(findings, rec.Findings...)
			}
			if !reflect.DeepEqual(findings, res.Findings) {
				t.Fatalf("workers %d, cut %d: journaled findings diverge from the Result's:\ngot  %v\nwant %v",
					workers, cut, findings, res.Findings)
			}
		}
	}
}

// TestFarmJournalMismatchRefused: resuming under different scan
// parameters must fail loudly, not silently mis-merge shard IDs.
func TestFarmJournalMismatchRefused(t *testing.T) {
	chip := testChip(t, 4)
	det := densityDetector{thr: 0.5}
	cfg := Config{SkipEmpty: true}
	path := t.TempDir() + "/scan.journal"
	j, err := CreateJournal(path, cfg.Meta(chip, det.Name()))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	other := cfg
	other.ShardRows = 7
	if _, _, err := ResumeJournal(path, other.Meta(chip, det.Name())); !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("mismatched resume error = %v, want ErrJournalMismatch", err)
	}
}

// countingDetector counts the windows it is asked to score.
type countingDetector struct {
	densityDetector
	scored atomic.Int64
}

func (d *countingDetector) Score(ctx context.Context, c layout.Clip) (float64, error) {
	d.scored.Add(1)
	return d.densityDetector.Score(ctx, c)
}

// TestFarmJournalFailureStopsRun: once the journal stops accepting
// records nothing scored afterwards can be resumed, so the first failed
// append cancels the run and Run returns that error promptly instead
// of scoring every remaining shard first.
func TestFarmJournalFailureStopsRun(t *testing.T) {
	chip := testChip(t, 16)
	det := &countingDetector{densityDetector: densityDetector{thr: 0.5}}
	cfg := Config{Workers: 2, ShardRows: 1}
	j, err := CreateJournal(filepath.Join(t.TempDir(), "scan.journal"), cfg.Meta(chip, det.Name()))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil { // every Append now fails
		t.Fatal(err)
	}
	cfg.Journal = j

	res, err := Run(context.Background(), chip, det, cfg)
	if err == nil || !strings.Contains(err.Error(), "journal append") {
		t.Fatalf("Run = %+v, %v; want the journal append error", res, err)
	}
	plan := NewPlan(chip.Bounds(), cfg)
	// The failing shard plus whatever the other worker had in flight:
	// a few rows, against the 32 the plan holds.
	if got, limit := det.scored.Load(), int64(4*plan.Cols); got > limit {
		t.Fatalf("scored %d of %d windows after the journal failed, want at most %d",
			got, plan.Windows(), limit)
	}
}

// TestFarmEmptyChip: no geometry, no shards, no findings, no error.
func TestFarmEmptyChip(t *testing.T) {
	res, err := Run(context.Background(), testChipEmpty(), densityDetector{thr: 0.5}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 0 || len(res.Findings) != 0 {
		t.Fatalf("empty chip produced %+v", res)
	}
}

// counterValue reads one counter series from a registry snapshot.
func counterValue(t *testing.T, reg *telemetry.Registry, name string, labelKV ...string) float64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name != name {
			continue
		}
		if len(labelKV) == 2 {
			match := false
			for _, l := range s.Labels {
				if l.Key == labelKV[0] && l.Value == labelKV[1] {
					match = true
				}
			}
			if !match {
				continue
			}
		}
		return s.Value
	}
	t.Fatalf("series %s%v not found", name, labelKV)
	return 0
}
