package qualitymon

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/telemetry"
	"github.com/golitho/hsd/internal/trace"
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

func testMonitorOpts(clk Clock) Options {
	return Options{
		Clock:     clk,
		SubWindow: 10 * time.Second,
		FastSubs:  3,
		SlowSubs:  6,
		Bins:      10,
		SLOTarget: 0.9,
	}
}

func TestNilMonitorNoOps(t *testing.T) {
	var m *Monitor
	m.Observe(Event{Detector: "d", Stage: "s", Score: 0.5})
	m.ReportServeOutcome(true)
	m.Reset()
	m.InstallBaseline(testBaseline())
	m.InstallBaselineSidecar("nope.gob")
	m.Close()
	snap := m.Snapshot()
	if snap.Alert.Name != "ok" {
		t.Fatalf("nil monitor alert = %q, want ok", snap.Alert.Name)
	}
}

func TestObserveAndSnapshotCounts(t *testing.T) {
	clk := newFakeClock()
	m := New(testMonitorOpts(clk))
	defer m.Close()
	for i := 0; i < 50; i++ {
		m.Observe(Event{Detector: "MLP", Stage: "primary", Score: float64(i) / 50})
	}
	snap := m.Snapshot()
	if len(snap.Sketches) != 1 {
		t.Fatalf("sketch count = %d, want 1", len(snap.Sketches))
	}
	sk := snap.Sketches[0]
	if sk.Detector != "MLP" || sk.Stage != "primary" {
		t.Fatalf("series = %s/%s", sk.Detector, sk.Stage)
	}
	if sk.Fast != 50 || sk.Slow != 50 {
		t.Fatalf("fast/slow = %d/%d, want 50/50", sk.Fast, sk.Slow)
	}
	if sk.PSI != 0 || sk.Baseline {
		t.Fatalf("no baseline installed but PSI=%v baseline=%v", sk.PSI, sk.Baseline)
	}
	if sk.P50 <= 0 || sk.P50 >= 1 {
		t.Fatalf("p50 = %v, want interior", sk.P50)
	}
	// Events age out of the fast window but stay in the slow one.
	clk.Advance(40 * time.Second) // 4 sub-windows: outside fast (3), inside slow (6)
	snap = m.Snapshot()
	sk = snap.Sketches[0]
	if sk.Fast != 0 || sk.Slow != 50 {
		t.Fatalf("after aging: fast/slow = %d/%d, want 0/50", sk.Fast, sk.Slow)
	}
}

func TestDriftAlertAndClear(t *testing.T) {
	clk := newFakeClock()
	opts := testMonitorOpts(clk)
	opts.ClearHold = 15 * time.Second
	m := New(opts)
	defer m.Close()

	// Baseline: scores spread uniformly over [0,1].
	var scores []float64
	for i := 0; i < 100; i++ {
		scores = append(scores, float64(i)/100)
	}
	m.InstallBaseline(&Baseline{Entries: []BaselineEntry{
		NewBaselineEntry("MLP", "primary", scores, 10),
	}})

	// In-distribution traffic: no alert.
	for i := 0; i < 100; i++ {
		m.Observe(Event{Detector: "MLP", Stage: "primary", Score: float64(i) / 100})
	}
	snap := m.Snapshot()
	if snap.Alert.State != AlertOK {
		t.Fatalf("in-distribution alert = %s (psi %v)", snap.Alert.Name, snap.Alert.MaxPSI)
	}
	if !snap.Sketches[0].Baseline {
		t.Fatalf("baseline not installed on sketch")
	}

	// Covariate shift: all mass collapses into one bin.
	for i := 0; i < 200; i++ {
		m.Observe(Event{Detector: "MLP", Stage: "primary", Score: 0.01})
	}
	snap = m.Snapshot()
	if snap.Alert.State != AlertPage {
		t.Fatalf("shifted alert = %s (psi %v), want page", snap.Alert.Name, snap.Alert.MaxPSI)
	}
	if snap.Sketches[0].MaxBinKL <= 0 {
		t.Fatalf("MaxBinKL = %v, want > 0 under shift", snap.Sketches[0].MaxBinKL)
	}

	// Rollback: Reset clears the windows; the page holds through
	// ClearHold, then steps down.
	m.Reset()
	snap = m.Snapshot()
	if snap.Alert.State != AlertPage {
		t.Fatalf("alert cleared instantly, want ClearHold hysteresis")
	}
	clk.Advance(20 * time.Second) // > ClearHold
	snap = m.Snapshot()
	if snap.Alert.State != AlertOK {
		t.Fatalf("alert after hold = %s, want ok", snap.Alert.Name)
	}
}

func TestDriftEventEmission(t *testing.T) {
	clk := newFakeClock()
	reg := telemetry.NewRegistry()
	tr := trace.New(trace.Config{Capacity: 8, Shards: 1})
	opts := testMonitorOpts(clk)
	opts.Metrics, opts.Tracer = reg, tr
	m := New(opts)
	defer m.Close()

	m.InstallBaseline(&Baseline{Entries: []BaselineEntry{
		NewBaselineEntry("MLP", "primary", []float64{0.1, 0.3, 0.5, 0.7, 0.9}, 5),
	}})
	for i := 0; i < 100; i++ {
		m.Observe(Event{Detector: "MLP", Stage: "primary", Score: 0.05})
	}
	// Two snapshots: the rising edge fires exactly once (latched).
	m.Snapshot()
	m.Snapshot()

	traces := tr.Traces(0)
	drift := 0
	for _, rec := range traces {
		if rec.Root == "quality.drift" {
			drift++
			if len(rec.Flags) == 0 {
				t.Fatalf("drift trace has no retention flag")
			}
		}
	}
	if drift != 1 {
		t.Fatalf("drift traces = %d, want exactly 1 (latched rising edge)", drift)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "hotspot_quality_drift_events_total 1") {
		t.Fatalf("drift event counter missing:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), `hotspot_drift_score{detector="MLP",stage="primary"}`) {
		t.Fatalf("drift score gauge missing:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "hotspot_quality_alert_state 2") {
		t.Fatalf("alert state gauge missing or not paging:\n%s", sb.String())
	}
}

func TestSpotCheckerConfusion(t *testing.T) {
	clk := newFakeClock()
	opts := testMonitorOpts(clk)
	opts.SpotCheckRate = 1
	opts.SyncSpotChecks = true
	// Oracle: hot iff the clip index encoded in the first shape's width
	// is even (deterministic, disagrees with half the predictions).
	opts.Oracle = func(c layout.Clip) (bool, error) {
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
			Detector: "MLP", Stage: "primary",
			Score: score, Threshold: 0.5,
			Clip: testClip(i), HasClip: true,
		})
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
	// 50% bad at a 90% target burns 5x the budget: page.
	if snap.SLO.BurnFast < 2 {
		t.Fatalf("burn fast = %v, want >= 2", snap.SLO.BurnFast)
	}
	if snap.Alert.State != AlertPage {
		t.Fatalf("alert = %s, want page on burn", snap.Alert.Name)
	}
}

// TestSpotMissTap: only the checks where the oracle disagrees reach
// the miss tap, with the clip and both verdicts intact.
func TestSpotMissTap(t *testing.T) {
	clk := newFakeClock()
	opts := testMonitorOpts(clk)
	opts.SpotCheckRate = 1
	opts.SyncSpotChecks = true
	opts.Oracle = func(c layout.Clip) (bool, error) {
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
			Detector: "MLP", Stage: "primary",
			Score: score, Threshold: 0.5,
			Clip: testClip(i), HasClip: true,
		})
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
		m.ReportServeOutcome(true)
	}
	for i := 0; i < 10; i++ {
		m.ReportServeOutcome(false)
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

func TestLowConfidenceTap(t *testing.T) {
	clk := newFakeClock()
	opts := testMonitorOpts(clk)
	opts.LowConfMargin = 0.1
	var mu sync.Mutex
	got := make(map[layout.Fingerprint]float64)
	opts.LowConfidenceTap = func(fp layout.Fingerprint, clip layout.Clip, score float64, stage string) {
		if stage != "primary" {
			t.Errorf("tap stage = %q", stage)
		}
		if got := clip.Fingerprint(); got != fp {
			t.Errorf("tap clip fingerprint %x != fp %x", got[:4], fp[:4])
		}
		mu.Lock()
		got[fp] = score
		mu.Unlock()
	}
	m := New(opts)
	defer m.Close()
	scores := []float64{0.1, 0.45, 0.5, 0.55, 0.9, 0.61}
	for i, s := range scores {
		m.Observe(Event{
			Detector: "MLP", Stage: "primary",
			Score: s, Threshold: 0.5,
			Clip: testClip(i), HasClip: true,
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

func TestInstallBaselineSidecar(t *testing.T) {
	dir := t.TempDir()
	model := filepath.Join(dir, "mlp.gob")
	if err := SaveBaselineFile(SidecarPath(model), testBaseline()); err != nil {
		t.Fatal(err)
	}
	var logs []string
	clk := newFakeClock()
	opts := testMonitorOpts(clk)
	opts.Logf = func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }
	m := New(opts)
	defer m.Close()
	m.InstallBaselineSidecar(model)
	m.Observe(Event{Detector: "MLP", Stage: "primary", Score: 0.2})
	snap := m.Snapshot()
	found := false
	for _, sk := range snap.Sketches {
		if sk.Detector == "MLP" && sk.Stage == "primary" && sk.Baseline {
			found = true
		}
	}
	if !found {
		t.Fatalf("sidecar baseline not installed; logs: %v; snap: %+v", logs, snap.Sketches)
	}
	// Missing sidecar: logged, not fatal.
	m.InstallBaselineSidecar(filepath.Join(dir, "other.gob"))
}

func TestAsyncSpotCheckerDrains(t *testing.T) {
	opts := testMonitorOpts(newFakeClock())
	opts.SpotCheckRate = 1
	opts.Oracle = func(c layout.Clip) (bool, error) { return true, nil }
	m := New(opts)
	for i := 0; i < 16; i++ {
		m.Observe(Event{
			Detector: "MLP", Stage: "primary", Score: 1, Threshold: 0.5,
			Clip: testClip(i), HasClip: true,
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
