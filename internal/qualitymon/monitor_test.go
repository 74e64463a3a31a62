package qualitymon

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/golitho/hsd/internal/faultinject"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/lithosim"
	"github.com/golitho/hsd/internal/resilience"
	"github.com/golitho/hsd/internal/telemetry"
)

// testClip builds a clip whose geometry (and therefore fingerprint) is
// a deterministic function of i.
func testClip(i int) layout.Clip {
	y := (i * 16) % 960
	return layout.Clip{
		Window: geom.R(0, 0, 1024, 1024),
		Core:   geom.R(256, 256, 768, 768),
		Shapes: []geom.Rect{
			geom.R(0, y, 128+i%64, y+8),
			geom.R(200, y, 328, y+8),
		},
	}
}

func testMonitorOpts(clk resilience.Clock) Options {
	return Options{
		Clock:     clk,
		SubWindow: 10 * time.Second,
		SLOTarget: 0.9,
	}
}

func TestNilMonitorNoOps(t *testing.T) {
	var m *Monitor
	m.Observe(Event{Stage: "primary", Score: 0.5})
	m.ReportServeOutcome(0, true)
	m.Reset()
	m.Close()
	snap := m.Snapshot()
	if snap.Alert.Name != "ok" {
		t.Fatalf("nil monitor alert = %q, want ok", snap.Alert.Name)
	}
}

// TestObserveAndSnapshotCounts: with spot checks off, observed scores
// leave the windows empty; serve outcomes age out of the fast window
// but stay in the slow one.
func TestObserveAndSnapshotCounts(t *testing.T) {
	clk := newFakeClock()
	m := New(testMonitorOpts(clk))
	defer m.Close()
	for i := 0; i < 50; i++ {
		m.Observe(Event{Stage: "primary", Score: float64(i) / 50, Clip: testClip(i)})
	}
	if snap := m.Snapshot(); snap.SLO != (SLOSnapshot{Target: 0.9}) || snap.SpotCheck != (SpotCheckSnapshot{}) {
		t.Fatalf("50 observed scores counted: slo %+v, spot check %+v", snap.SLO, snap.SpotCheck)
	}
	for i := 0; i < 50; i++ {
		m.ReportServeOutcome(0, i%5 != 0)
	}
	slo := m.Snapshot().SLO
	if slo.FastGood != 40 || slo.FastBad != 10 || slo.SlowGood != 40 || slo.SlowBad != 10 {
		t.Fatalf("fast good/bad %d/%d, slow %d/%d, want 40/10 in both",
			slo.FastGood, slo.FastBad, slo.SlowGood, slo.SlowBad)
	}
	// Outcomes age out of the fast window but stay in the slow one.
	clk.Advance((fastSubs + 1) * 10 * time.Second) // outside fast, inside slow
	slo = m.Snapshot().SLO
	if slo.FastGood != 0 || slo.FastBad != 0 || slo.SlowGood != 40 || slo.SlowBad != 10 {
		t.Fatalf("after aging: fast good/bad %d/%d, slow %d/%d, want 0/0 and 40/10",
			slo.FastGood, slo.FastBad, slo.SlowGood, slo.SlowBad)
	}
}

// TestObserveTakesNoLock: with spot checks and the tap off, Observe
// returns while another goroutine holds the monitor's mutex.
func TestObserveTakesNoLock(t *testing.T) {
	m := New(testMonitorOpts(newFakeClock()))
	defer m.Close()
	m.mu.Lock()
	defer m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		m.Observe(Event{Stage: "primary", Score: 0.42, Threshold: 0.5, Clip: testClip(0)})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Observe blocked on the monitor's mutex")
	}
}

// TestBurnAlertAndClear: score shape alone never pages; a fast burn
// pages and shows on /metrics; Reset keeps the page through the clear
// hold and only then steps it down.
func TestBurnAlertAndClear(t *testing.T) {
	clk := newFakeClock()
	reg := telemetry.NewRegistry()
	opts := testMonitorOpts(clk)
	opts.Metrics = reg
	m := New(opts)
	defer m.Close()
	scrape := func() string {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	// Clean traffic whose scores all bunch at one value: no alert.
	for i := 0; i < 200; i++ {
		m.Observe(Event{Stage: "primary", Score: 0.01})
		m.ReportServeOutcome(0, true)
	}
	if snap := m.Snapshot(); snap.Alert.State != AlertOK || snap.SLO.FastGood != 200 {
		t.Fatalf("bunched clean traffic: alert %s, %d good in the fast window; want ok with 200",
			snap.Alert.Name, snap.SLO.FastGood)
	}

	// A fast burn: 100 bad events against 200 good is a third of the
	// fast window bad, 3.3x the 10% budget.
	for i := 0; i < 100; i++ {
		m.ReportServeOutcome(0, false)
	}
	if snap := m.Snapshot(); snap.Alert.State != AlertPage {
		t.Fatalf("fast burn %v: alert %s, want page", snap.SLO.BurnFast, snap.Alert.Name)
	}
	if out := scrape(); !strings.Contains(out, "hotspot_quality_alert_state 2") ||
		!strings.Contains(out, `hotspot_slo_burn_rate{window="fast"} 3.33`) {
		t.Fatalf("page or fast burn missing from /metrics:\n%s", out)
	}

	// Rollback: Reset clears the windows; the page holds through
	// clearHoldSubs sub-windows, then steps down.
	m.Reset()
	if snap := m.Snapshot(); snap.Alert.State != AlertPage {
		t.Fatalf("alert cleared instantly, want clear-hold hysteresis")
	}
	hold := clearHoldSubs * opts.SubWindow
	clk.Advance(hold - time.Second)
	if snap := m.Snapshot(); snap.Alert.State != AlertPage {
		t.Fatalf("alert %s a second before the %v hold ran out, want page", snap.Alert.Name, hold)
	}
	clk.Advance(time.Second)
	if snap := m.Snapshot(); snap.Alert.State != AlertOK {
		t.Fatalf("alert after hold = %s, want ok", snap.Alert.Name)
	}
	if out := scrape(); !strings.Contains(out, "hotspot_quality_alert_state 0") {
		t.Fatalf("cleared alert not exported:\n%s", out)
	}
}

func TestSpotCheckerConfusion(t *testing.T) {
	clk := newFakeClock()
	opts := testMonitorOpts(clk)
	opts.SpotCheckRate = 1
	// Oracle: hot iff the clip index encoded in the first shape's width
	// is even (deterministic, disagrees with half the predictions).
	opts.Oracle = func(_ context.Context, c layout.Clip) (bool, error) {
		return c.Shapes[0].Dx()%2 == 0, nil
	}
	m := New(opts)
	defer m.Close()

	// Predictions: score 1.0 (hot) for i%4<2, else 0.0 — a mix of all
	// four confusion cells against the oracle's i%2 parity.
	for i := 0; i < 40; i++ {
		score := 0.0
		if i%4 < 2 {
			score = 1.0
		}
		m.Observe(Event{
			Stage: "primary",
			Score: score, Threshold: 0.5,
			Clip: testClip(i),
		})
	}
	if !m.DrainSpotChecks(5 * time.Second) {
		t.Fatal("spot checks did not drain")
	}
	snap := m.Snapshot()
	sc := snap.SpotCheck
	if sc.Sampled != 40 {
		t.Fatalf("sampled = %d, want 40 at rate 1", sc.Sampled)
	}
	w := sc.Window
	if w.TP+w.FP+w.TN+w.FN != 40 {
		t.Fatalf("confusion total = %d, want 40 (%+v)", w.TP+w.FP+w.TN+w.FN, w)
	}
	// i%4 in {0,1} predicted hot; oracle hot iff (128+i%64) even ⇔ i even.
	// i%4==0: TP, i%4==1: FP, i%4==2: actual hot missed → FN, i%4==3: TN.
	if w.TP != 10 || w.FP != 10 || w.FN != 10 || w.TN != 10 {
		t.Fatalf("confusion = %+v, want 10 each", w)
	}
	if w.Recall != 0.5 || w.FalseAlarm != 0.5 {
		t.Fatalf("recall/FAR = %v/%v, want 0.5/0.5", w.Recall, w.FalseAlarm)
	}
	if sc.Mismatches != 20 {
		t.Fatalf("mismatches = %d, want 20", sc.Mismatches)
	}
}

// TestSpotMismatchesNeverPage: the SLO's events are serve outcomes
// only. With every spot check contradicting the model and every serve
// outcome good, nothing burns and the alert stays ok, while the
// mismatch counter and the miss tap still see every check.
func TestSpotMismatchesNeverPage(t *testing.T) {
	opts := testMonitorOpts(newFakeClock())
	opts.SLOTarget = 0.99
	opts.SpotCheckRate = 1
	// Oracle hot iff the clip's first shape has an even width; the
	// model's verdict is always the other one.
	hot := func(c layout.Clip) bool { return c.Shapes[0].Dx()%2 == 0 }
	opts.Oracle = func(_ context.Context, c layout.Clip) (bool, error) { return hot(c), nil }
	var taps atomic.Int64
	opts.SpotMissTap = func(layout.Clip, bool, bool) { taps.Add(1) }
	m := New(opts)
	defer m.Close()
	const n = 40
	for i := 0; i < n; i++ {
		c := testClip(i)
		score := 1.0
		if hot(c) {
			score = 0
		}
		m.Observe(Event{Stage: "primary", Score: score, Threshold: 0.5, Clip: c})
		m.ReportServeOutcome(0, true)
	}
	if !m.DrainSpotChecks(5 * time.Second) {
		t.Fatal("spot checks did not drain")
	}
	snap := m.Snapshot()
	if snap.SpotCheck.Mismatches != n || taps.Load() != n {
		t.Fatalf("%d mismatches counted and %d tapped, want %d of each", snap.SpotCheck.Mismatches, taps.Load(), n)
	}
	if w := snap.SpotCheck.Window; w.FP+w.FN != n || w.TP+w.TN != 0 {
		t.Fatalf("confusion %+v, want %d mismatching cells and no agreeing ones", w, n)
	}
	if snap.SLO.BurnFast != 0 || snap.SLO.FastGood != n || snap.SLO.FastBad != 0 || snap.Alert.State != AlertOK {
		t.Fatalf("slo %+v, alert %s; want %d good serve outcomes, no burn and ok", snap.SLO, snap.Alert.Name, n)
	}
}

// TestResetSkipsQueuedSpotCheck: a spot check of the old model's verdict
// that is still running when Reset swaps generations never lands in the
// new generation's window, but its mismatch is still counted and mined.
func TestResetSkipsQueuedSpotCheck(t *testing.T) {
	opts := testMonitorOpts(newFakeClock())
	opts.SpotCheckRate = 1
	entered, release := make(chan struct{}), make(chan struct{})
	opts.Oracle = func(context.Context, layout.Clip) (bool, error) {
		close(entered)
		<-release
		return false, nil
	}
	var taps atomic.Int64
	opts.SpotMissTap = func(layout.Clip, bool, bool) { taps.Add(1) }
	m := New(opts)
	defer m.Close()
	m.Observe(Event{Stage: "primary", Score: 1, Threshold: 0.5, Clip: testClip(0)})
	<-entered
	m.Reset()
	close(release)
	if !m.DrainSpotChecks(5 * time.Second) {
		t.Fatal("spot checks did not drain")
	}
	sc := m.Snapshot().SpotCheck
	if sc.Window != (ConfusionSnapshot{}) {
		t.Fatalf("a check sampled before Reset landed in the new window: %+v", sc.Window)
	}
	if sc.Mismatches != 1 || taps.Load() != 1 {
		t.Fatalf("%d mismatches counted and %d tapped, want 1 and 1", sc.Mismatches, taps.Load())
	}
}

// TestSpotTotalsWithoutMetrics: the spot-check totals live in the
// monitor's counters, so a Monitor built without Options.Metrics still
// reports every one of them in Snapshot.
func TestSpotTotalsWithoutMetrics(t *testing.T) {
	opts := testMonitorOpts(newFakeClock())
	opts.SpotCheckRate = 1
	errOracle := errors.New("oracle down")
	bad := testClip(0).Fingerprint()
	opts.Oracle = func(_ context.Context, c layout.Clip) (bool, error) {
		if c.Fingerprint() == bad {
			return false, errOracle
		}
		return true, nil
	}
	m := New(opts)
	// Clip 0 fails every oracle attempt; clip 1 is hot as predicted;
	// clip 2 is hot against a cold prediction.
	for i, score := range []float64{1, 1, 0} {
		m.Observe(Event{Stage: "primary", Score: score, Threshold: 0.5, Clip: testClip(i)})
	}
	if !m.DrainSpotChecks(10 * time.Second) {
		t.Fatal("spot checks did not drain")
	}
	m.Close()
	m.Observe(Event{Stage: "primary", Score: 1, Threshold: 0.5, Clip: testClip(3)})
	sc := m.Snapshot().SpotCheck
	if sc.Sampled != 4 || sc.Errors != 1 || sc.Mismatches != 1 || sc.Dropped != 1 {
		t.Fatalf("spot-check totals %+v, want 4 sampled, 1 error, 1 mismatch, 1 dropped", sc)
	}
}

// TestSpotMissTap: only the checks where the oracle disagrees reach
// the miss tap, with the clip and both verdicts intact.
func TestSpotMissTap(t *testing.T) {
	clk := newFakeClock()
	opts := testMonitorOpts(clk)
	opts.SpotCheckRate = 1
	opts.Oracle = func(_ context.Context, c layout.Clip) (bool, error) {
		return c.Shapes[0].Dx()%2 == 0, nil
	}
	type miss struct{ predicted, actual bool }
	var mu sync.Mutex
	misses := make(map[layout.Fingerprint]miss)
	opts.SpotMissTap = func(clip layout.Clip, predicted, actual bool) {
		mu.Lock()
		misses[clip.Fingerprint()] = miss{predicted, actual}
		mu.Unlock()
	}
	m := New(opts)
	defer m.Close()
	for i := 0; i < 40; i++ {
		score := 0.0
		if i%4 < 2 {
			score = 1.0
		}
		m.Observe(Event{
			Stage: "primary",
			Score: score, Threshold: 0.5,
			Clip: testClip(i),
		})
	}
	if !m.DrainSpotChecks(5 * time.Second) {
		t.Fatal("spot checks did not drain")
	}
	// Same setup as TestSpotCheckerConfusion: 10 FP + 10 FN = 20 misses.
	if len(misses) != 20 {
		t.Fatalf("miss tap saw %d clips, want 20", len(misses))
	}
	for fp, ms := range misses {
		if ms.predicted == ms.actual {
			t.Fatalf("tap received a non-miss for %x: %+v", fp[:4], ms)
		}
	}
}

func TestSpotCheckSamplingDeterministic(t *testing.T) {
	rate := 0.5
	for i := 0; i < 64; i++ {
		fp := testClip(i).Fingerprint()
		a := sampleFingerprint(fp, rate)
		b := sampleFingerprint(fp, rate)
		if a != b {
			t.Fatalf("sampling not deterministic for clip %d", i)
		}
	}
	if sampleFingerprint(testClip(0).Fingerprint(), 0) {
		t.Fatalf("rate 0 sampled")
	}
	if !sampleFingerprint(testClip(0).Fingerprint(), 1) {
		t.Fatalf("rate 1 skipped")
	}
	// Rate 0.5 should select a nontrivial subset, not everything.
	n := 0
	for i := 0; i < 256; i++ {
		if sampleFingerprint(testClip(i).Fingerprint(), rate) {
			n++
		}
	}
	if n == 0 || n == 256 {
		t.Fatalf("rate 0.5 sampled %d/256", n)
	}
}

func TestServeOutcomeSLO(t *testing.T) {
	clk := newFakeClock()
	m := New(testMonitorOpts(clk))
	defer m.Close()
	for i := 0; i < 90; i++ {
		m.ReportServeOutcome(0, true)
	}
	for i := 0; i < 10; i++ {
		m.ReportServeOutcome(0, false)
	}
	snap := m.Snapshot()
	// 10% bad at target 0.9 = burning exactly 1x the budget.
	if snap.SLO.BurnFast < 0.99 || snap.SLO.BurnFast > 1.01 {
		t.Fatalf("burn = %v, want ~1", snap.SLO.BurnFast)
	}
	if snap.SLO.FastGood != 90 || snap.SLO.FastBad != 10 {
		t.Fatalf("fast good/bad = %d/%d", snap.SLO.FastGood, snap.SLO.FastBad)
	}
	if snap.Alert.State != AlertWarning {
		t.Fatalf("alert = %s, want warning at slow burn 1", snap.Alert.Name)
	}
}

// TestBurnBoundaryWarns: a slow window failing exactly its error budget
// burns 1 and warns, for targets given to a few decimals, and one bad
// event fewer burns under 1 and does not.
func TestBurnBoundaryWarns(t *testing.T) {
	for _, tc := range []struct {
		target float64
		n, bad int
	}{
		{0.9, 100, 10},
		{0.95, 100, 5},
		{0.99, 100, 1},
		{0.99, 400, 4},
		{0.999, 1000, 1},
	} {
		for _, bad := range []int{tc.bad, tc.bad - 1} {
			clk := newFakeClock()
			opts := testMonitorOpts(clk)
			opts.SLOTarget = tc.target
			m := New(opts)
			for i := 0; i < tc.n; i++ {
				m.ReportServeOutcome(0, i >= bad)
			}
			snap := m.Snapshot()
			m.Close()
			atBudget := bad == tc.bad
			if atBudget != (snap.Alert.State == AlertWarning) || atBudget != (snap.SLO.BurnSlow == 1) ||
				snap.SLO.BurnSlow > 1 {
				t.Errorf("target %v, %d bad in %d: slow burn %v, alert %s; want burn 1 and a warning only at %d bad",
					tc.target, bad, tc.n, snap.SLO.BurnSlow, snap.Alert.Name, tc.bad)
			}
		}
	}
}

func TestLowConfidenceTap(t *testing.T) {
	clk := newFakeClock()
	opts := testMonitorOpts(clk)
	opts.LowConfMargin = 0.1
	var mu sync.Mutex
	got := make(map[layout.Fingerprint]float64)
	opts.LowConfidenceTap = func(clip layout.Clip, score float64, stage string) {
		if stage != "primary" {
			t.Errorf("tap stage = %q", stage)
		}
		mu.Lock()
		got[clip.Fingerprint()] = score
		mu.Unlock()
	}
	m := New(opts)
	defer m.Close()
	scores := []float64{0.1, 0.45, 0.5, 0.55, 0.9, 0.61}
	for i, s := range scores {
		m.Observe(Event{
			Stage: "primary",
			Score: s, Threshold: 0.5,
			Clip: testClip(i),
		})
	}
	// Only |score-0.5| <= 0.1 qualifies: 0.45, 0.5, 0.55.
	if len(got) != 3 {
		t.Fatalf("tap saw %d clips, want 3: %v", len(got), got)
	}
	for fp, s := range got {
		if s < 0.4 || s > 0.6 {
			t.Fatalf("tap leaked out-of-margin score %v (fp %v)", s, fp)
		}
	}
}

func TestAsyncSpotCheckerDrains(t *testing.T) {
	opts := testMonitorOpts(newFakeClock())
	opts.SpotCheckRate = 1
	opts.Oracle = func(_ context.Context, c layout.Clip) (bool, error) { return true, nil }
	m := New(opts)
	for i := 0; i < 16; i++ {
		m.Observe(Event{
			Stage: "primary", Score: 1, Threshold: 0.5,
			Clip: testClip(i),
		})
	}
	if !m.DrainSpotChecks(5 * time.Second) {
		t.Fatalf("spot checks did not drain")
	}
	snap := m.Snapshot()
	if got := snap.SpotCheck.Window.TP; got != 16 {
		t.Fatalf("TP = %d, want 16", got)
	}
	m.Close()
}

// TestObserveAfterCloseDropsSpotCheck: a clip sampled after Close is a
// dropped check, counted like one that finds the queue full, and is
// never sent on the closed queue.
func TestObserveAfterCloseDropsSpotCheck(t *testing.T) {
	reg := telemetry.NewRegistry()
	opts := testMonitorOpts(newFakeClock())
	opts.SpotCheckRate = 1
	opts.Oracle = func(_ context.Context, c layout.Clip) (bool, error) { return true, nil }
	opts.Metrics = reg
	m := New(opts)
	m.Close()
	m.Observe(Event{
		Stage: "primary", Score: 1, Threshold: 0.5,
		Clip: testClip(0),
	})
	if sc := m.Snapshot().SpotCheck; sc.Sampled != 1 || sc.Dropped != 1 {
		t.Fatalf("after Close: sampled %d, dropped %d, want 1 and 1", sc.Sampled, sc.Dropped)
	}
	if !m.DrainSpotChecks(time.Second) {
		t.Fatal("a dropped check is still pending")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "hotspot_spot_checks_dropped_total 1") {
		t.Fatalf("dropped counter missing:\n%s", sb.String())
	}
}

// TestObserveConcurrentWithClose: Close racing live Observe calls
// neither panics nor loses a check. Every sampled clip is either run
// by the oracle (Close drains what was queued) or counted as dropped.
func TestObserveConcurrentWithClose(t *testing.T) {
	opts := testMonitorOpts(newFakeClock())
	opts.SpotCheckRate = 1
	var calls atomic.Int64
	opts.Oracle = func(_ context.Context, c layout.Clip) (bool, error) {
		calls.Add(1)
		return true, nil
	}
	m := New(opts)
	const goroutines, each = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				m.Observe(Event{
					Stage: "primary", Score: 1, Threshold: 0.5,
					Clip: testClip(g*each + i),
				})
			}
		}(g)
	}
	m.Close()
	wg.Wait()
	sc := m.Snapshot().SpotCheck
	if sc.Sampled != goroutines*each {
		t.Fatalf("sampled %d, want %d", sc.Sampled, goroutines*each)
	}
	if got := calls.Load() + sc.Dropped; got != sc.Sampled {
		t.Fatalf("oracle ran %d and %d were dropped: %d of %d sampled checks accounted for",
			calls.Load(), sc.Dropped, got, sc.Sampled)
	}
	if !m.DrainSpotChecks(time.Second) {
		t.Fatal("checks still pending after Close")
	}
}

// TestOracleFaultSpotChecker: a raw oracle that panics on every attempt
// of one check costs that check (counted as an error), not the worker:
// the next sampled clip is still checked.
func TestOracleFaultSpotChecker(t *testing.T) {
	defer faultinject.Reset()
	sim, err := lithosim.New(lithosim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	opts := testMonitorOpts(newFakeClock())
	opts.SpotCheckRate = 1
	opts.Oracle = sim.LabelCtx
	opts.Metrics = reg
	m := New(opts)
	defer m.Close()

	// Three panics: every attempt of the first check.
	faultinject.Set(lithosim.SimulateSite, faultinject.Fault{Panic: "chaos: simulation exploded", Count: 3})
	for i := 0; i < 2; i++ {
		m.Observe(Event{
			Stage: "primary", Score: 1, Threshold: 0.5,
			Clip: testClip(i),
		})
	}
	if !m.DrainSpotChecks(10 * time.Second) {
		t.Fatal("spot checks did not drain")
	}
	if got := faultinject.Fired(lithosim.SimulateSite); got != 3 {
		t.Fatalf("fault fired %d times, want 3", got)
	}
	if v := reg.Counter("hotspot_spot_check_errors_total").Value(); v != 1 {
		t.Fatalf("hotspot_spot_check_errors_total = %v, want 1", v)
	}
	w := m.Snapshot().SpotCheck.Window
	if n := w.TP + w.FP + w.TN + w.FN; n != 1 {
		t.Fatalf("%d checks reached the confusion window, want the second one", n)
	}
}
