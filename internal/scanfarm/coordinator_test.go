package scanfarm

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/faultinject"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/resilience"
	"github.com/golitho/hsd/internal/telemetry"
)

var errTransient = errors.New("transient worker failure")

// fastRetry removes real backoff sleeps from tests.
func fastRetry() resilience.RetryConfig {
	return resilience.RetryConfig{BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond}
}

// TestFarmMatchesCoreScan pins the farm's most load-bearing property:
// the sharded, pooled, cached scan produces exactly the findings of the
// plain single-process core.ScanCtx, in the same global row-major
// order.
func TestFarmMatchesCoreScan(t *testing.T) {
	chip := testChip(t, 8)
	det := densityDetector{thr: 0.5}
	cfg := Config{SkipEmpty: true, Workers: 4, ShardRows: 2, Retry: fastRetry()}
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
// whatever the schedule — worker count, shard size, cache on or off,
// injected transient faults forcing retries — the merged findings slice
// never changes.
func TestFarmDeterministicMerge(t *testing.T) {
	defer faultinject.Reset()
	chip := testChip(t, 10)
	det := densityDetector{thr: 0.5}
	base := Config{SkipEmpty: true, Retry: fastRetry()}
	want := referenceFindings(t, chip, det, base)

	cases := []struct {
		name      string
		workers   int
		shardRows int
		cacheSize int
		faults    int // transient WindowScoreSite errors to arm
	}{
		{"serial", 1, 1, 0, 0},
		{"pooled", 4, 1, 0, 0},
		{"wide-shards", 3, 4, 0, 0},
		{"cached", 4, 2, 4096, 0},
		{"cached-tiny", 2, 3, 8, 0},
		{"retries", 4, 2, 0, 9},
		{"retries-cached", 3, 1, 1024, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			faultinject.Reset()
			if tc.faults > 0 {
				// Each armed error fails one window score, failing that
				// shard's attempt; retries must recover every one.
				faultinject.Set(WindowScoreSite, faultinject.Fault{
					Err: errTransient, Count: tc.faults, Skip: 3,
				})
			}
			cfg := base
			cfg.Workers = tc.workers
			cfg.ShardRows = tc.shardRows
			cfg.CacheSize = tc.cacheSize
			cfg.MaxAttempts = 20 // transient faults must never quarantine here
			res, err := Run(context.Background(), chip, det, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Quarantined) != 0 {
				t.Fatalf("transient faults quarantined shards: %+v", res.Quarantined)
			}
			if !reflect.DeepEqual(res.Findings, want) {
				t.Fatalf("schedule changed findings:\ngot  %v\nwant %v", res.Findings, want)
			}
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
	cfg := Config{
		SkipEmpty:   true,
		Workers:     4,
		ShardRows:   1,
		MaxAttempts: 2,
		Retry:       fastRetry(),
		Breaker:     resilience.BreakerConfig{FailureThreshold: 100},
	}
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
	quarantined := map[int]bool{}
	for _, q := range res.Quarantined {
		quarantined[q.ShardID] = true
		if q.Attempts != cfg.MaxAttempts {
			t.Fatalf("quarantine after %d attempts, want %d", q.Attempts, cfg.MaxAttempts)
		}
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
	var want []core.Finding
	for _, f := range referenceFindings(t, chip, inner, cfg) {
		if !quarantined[shardOf(plan, f.Center)] {
			want = append(want, f)
		}
	}
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
			ShardID: q.ShardID, State: ShardQuarantined, Attempts: q.Attempts, Err: q.Err,
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

// TestFarmTransientPanicsLoseNothing: worker panics that clear up
// (flaky hardware, transient OOM-ish failures) are absorbed by retry —
// zero lost findings, zero quarantines, and the panic never escapes.
func TestFarmTransientPanicsLoseNothing(t *testing.T) {
	chip := testChip(t, 8)
	inner := densityDetector{thr: 0.5}
	var fails atomic.Int64
	fails.Store(7)
	det := &flakyDetector{inner: inner, fails: &fails, panics: true}
	cfg := Config{
		SkipEmpty:   true,
		Workers:     3,
		ShardRows:   1,
		MaxAttempts: 30,
		Retry:       fastRetry(),
		Breaker:     resilience.BreakerConfig{FailureThreshold: 1000},
	}
	res, err := Run(context.Background(), chip, det, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 0 {
		t.Fatalf("transient panics quarantined shards: %+v", res.Quarantined)
	}
	want := referenceFindings(t, chip, inner, cfg)
	if !reflect.DeepEqual(res.Findings, want) {
		t.Fatalf("lost findings under transient panics:\ngot  %v\nwant %v", res.Findings, want)
	}
}

// TestFarmShardBudget: a stuck window (injected latency) blows the
// per-attempt deadline and, when it never unsticks, quarantines the
// shard instead of hanging the scan.
func TestFarmShardBudget(t *testing.T) {
	defer faultinject.Reset()
	chip := testChip(t, 4)
	faultinject.Set(WindowScoreSite, faultinject.Fault{Latency: 300 * time.Millisecond})
	cfg := Config{
		SkipEmpty:   true,
		Workers:     2,
		ShardRows:   2,
		MaxAttempts: 2,
		ShardBudget: 30 * time.Millisecond,
		Retry:       fastRetry(),
	}
	start := time.Now()
	res, err := Run(context.Background(), chip, densityDetector{thr: 0.5}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != res.Shards {
		t.Fatalf("every shard is stuck; quarantined %d of %d", len(res.Quarantined), res.Shards)
	}
	// 2 shards * 2 attempts * ~300ms latency each, parallel over 2
	// workers: well under 5s proves the budget cut attempts short.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("budgeted scan took %v", elapsed)
	}
}

// TestFarmCacheHitsOnRepeatedCells: on a repeated-standard-cell layout
// the cache answers most windows, and cached verdicts are identical to
// the uncached scan's.
func TestFarmCacheHitsOnRepeatedCells(t *testing.T) {
	chip := cellChip(t, 10)
	det := densityDetector{thr: 0.1}
	cfg := Config{SkipEmpty: true, Workers: 1, ShardRows: 2, Retry: fastRetry()}

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

// TestFarmCancelIsResumable: cancelling mid-run is not an error, leaves
// the journal with only terminal records, and resuming completes the
// scan with findings identical to an uninterrupted run.
func TestFarmCancelIsResumable(t *testing.T) {
	chip := testChip(t, 10)
	det := densityDetector{thr: 0.5}
	cfg := Config{SkipEmpty: true, Workers: 2, ShardRows: 1, Retry: fastRetry()}
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

func (d *countingDetector) Score(c layout.Clip) (float64, error) {
	d.scored.Add(1)
	return d.densityDetector.Score(c)
}

// TestFarmJournalFailureStopsRun: once the journal stops accepting
// records nothing scored afterwards can be resumed, so the first failed
// append cancels the run and Run returns that error promptly instead
// of scoring every remaining shard first.
func TestFarmJournalFailureStopsRun(t *testing.T) {
	chip := testChip(t, 16)
	det := &countingDetector{densityDetector: densityDetector{thr: 0.5}}
	cfg := Config{Workers: 2, ShardRows: 1, Retry: fastRetry()}
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
