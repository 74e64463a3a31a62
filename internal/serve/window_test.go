package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/qualitymon"
	"github.com/golitho/hsd/internal/resilience"
)

var errScheduled = errors.New("scheduled primary failure")

// scheduleDetector is thresholdDetector under another name whose n-th
// call, counted from 1, fails when fails(n) says so.
type scheduleDetector struct {
	thresholdDetector
	name  string
	fails func(n int64) bool
	calls *atomic.Int64
}

func newScheduleDetector(name string, fails func(n int64) bool) scheduleDetector {
	return scheduleDetector{name: name, fails: fails, calls: new(atomic.Int64)}
}

func (d scheduleDetector) Name() string { return d.name }

func (d scheduleDetector) Score(ctx context.Context, clip layout.Clip) (float64, error) {
	if d.fails(d.calls.Add(1)) {
		return 0, errScheduled
	}
	return d.thresholdDetector.Score(ctx, clip)
}

// missClip is the i-th of a run of distinct one-shape clips, each a
// score cache miss.
func missClip(i int) layout.Clip {
	return layout.Clip{
		Window: geom.R(0, 0, 1024, 1024),
		Core:   geom.R(256, 256, 768, 768),
		Shapes: []geom.Rect{geom.R(0, 0, 1+i%1000, 1+i/1000)},
	}
}

// windowServer is a reload server with a fallback over a boot primary,
// whose reloads load cand.
func windowServer(t *testing.T, boot, cand core.Detector, opts Options) *Server {
	t.Helper()
	ro := opts.Reload
	if ro == nil {
		ro = &ReloadOptions{}
	}
	ro.Path = "model.hsdnn"
	ro.Loader = func(string) (core.Detector, error) { return cand, nil }
	opts.Primary, opts.Fallback, opts.Reload = boot, fallbackDetector{}, ro
	s, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func reload(t *testing.T, s *Server) {
	t.Helper()
	if _, v, err := s.registry.Reload(context.Background(), s.opts.Reload.Path); err != nil {
		t.Errorf("reload: %v (%s)", err, v)
	}
}

// TestProbationRollsBack: a swapped-in generation is rolled back at the
// outcome that takes its failures over ProbationMaxFailures, and the
// failures after that count against nothing: the restored generation
// is not judged, so they cannot roll back twice.
func TestProbationRollsBack(t *testing.T) {
	var bootFails atomic.Bool
	boot := newScheduleDetector("boot", func(int64) bool { return bootFails.Load() })
	cand := newScheduleDetector("cand", func(n int64) bool { return n != 1 })
	s := windowServer(t, boot, cand, Options{
		Breaker: resilience.BreakerConfig{FailureThreshold: 100},
		Reload:  &ReloadOptions{ProbationRequests: 10, ProbationMaxFailures: 2},
	})
	reload(t, s)
	for i := 0; i < 3; i++ { // one success, two failures: within the budget
		if _, err := s.cascade(context.Background(), s.live.Load(), missClip(i)); err != nil {
			t.Fatal(err)
		}
	}
	if id := s.registry.Live().ID; id != 2 {
		t.Fatalf("live generation %d, want 2: rolled back within the failure budget", id)
	}
	if _, err := s.cascade(context.Background(), s.live.Load(), missClip(3)); err != nil { // the third failure
		t.Fatal(err)
	}
	if id := s.registry.Live().ID; id != 1 || s.live.Load().gen.ID != 1 {
		t.Fatalf("live generation %d, serving %d; want 1 after the rollback", id, s.live.Load().gen.ID)
	}
	if got := reloadCounter(s, "rolled_back"); got != 1 {
		t.Fatalf("rolled_back counter = %v, want 1", got)
	}
	bootFails.Store(true)
	for i := 4; i < 14; i++ {
		s.cascade(context.Background(), s.live.Load(), missClip(i))
	}
	if got := reloadCounter(s, "rolled_back"); got != 1 {
		t.Fatalf("rolled_back counter moved to %v: a restored generation was judged", got)
	}
}

// TestProbationSurvival: a generation whose probation failures stay
// within the budget keeps serving, failures after its first
// ProbationRequests outcomes do not roll it back, and the generation it
// replaced stays the rollback target until the next swap.
func TestProbationSurvival(t *testing.T) {
	cand := newScheduleDetector("cand", func(n int64) bool { return n == 2 || n > 3 })
	s := windowServer(t, thresholdDetector{}, cand, Options{
		Breaker: resilience.BreakerConfig{FailureThreshold: 100},
		Reload:  &ReloadOptions{ProbationRequests: 3, ProbationMaxFailures: 1},
	})
	reload(t, s)
	for i := 0; i < 10; i++ { // success, failure, success, then failures only
		s.cascade(context.Background(), s.live.Load(), missClip(i))
	}
	if id := s.registry.Live().ID; id != 2 {
		t.Fatalf("live generation %d, want 2 (survived probation)", id)
	}
	if got := reloadCounter(s, "rolled_back"); got != 0 {
		t.Fatalf("rolled_back counter = %v, want 0", got)
	}
	if !s.registry.Rollback(s.registry.Live(), "operator") || s.registry.Live().ID != 1 {
		t.Fatal("the generation that passed probation could not be rolled back")
	}
}

// TestProbationTripRollsBack: a reload that fails every call trips its
// breaker at the 5th failure, one before the probation budget of 5 is
// exceeded; the trip rolls it back at once, and the restored generation
// starts with a closed breaker of its own, so its next miss is answered
// by the primary.
func TestProbationTripRollsBack(t *testing.T) {
	cand := newScheduleDetector("broken", func(int64) bool { return true })
	s := windowServer(t, thresholdDetector{}, cand, Options{
		Clock:  resilience.NewFakeClock(time.Unix(0, 0)),
		Reload: &ReloadOptions{ProbationRequests: 200, ProbationMaxFailures: 5},
	})
	reload(t, s)
	for i := 0; i < 5; i++ {
		if resp, err := s.cascade(context.Background(), s.live.Load(), missClip(i)); err != nil || resp.DegradedReason != "error" {
			t.Fatalf("miss %d: %+v, %v; want degraded by the broken primary", i, resp, err)
		}
	}
	if id := s.registry.Live().ID; id != 1 || reloadCounter(s, "rolled_back") != 1 {
		t.Fatalf("live generation %d after 5 failures, want 1: the trip did not roll back", id)
	}
	resp, err := s.cascade(context.Background(), s.live.Load(), missClip(5))
	if err != nil || resp.Degraded || resp.Detector != "density-threshold" {
		t.Fatalf("first miss of the restored generation: %+v, %v; want the primary's verdict", resp, err)
	}
}

// heldErrDetector is heldDetector whose held call fails once released.
type heldErrDetector struct{ heldDetector }

func (d heldErrDetector) Score(ctx context.Context, clip layout.Clip) (float64, error) {
	d.heldDetector.Score(ctx, clip)
	return 0, errScheduled
}

// straddle boots a server on a primary that holds its first call, starts
// a miss on it, reloads a healthy model while the call is held, and then
// lets the call fail: an outcome of the old generation that lands after
// the swap.
func straddle(t *testing.T, opts Options) *Server {
	t.Helper()
	held := heldErrDetector{heldDetector{entered: make(chan struct{}), release: make(chan struct{})}}
	s := windowServer(t, held, newScheduleDetector("cnn-v2", func(int64) bool { return false }), opts)
	done := make(chan ScoreResponse)
	go func() {
		resp, err := s.cascade(context.Background(), s.live.Load(), missClip(0))
		if err != nil {
			t.Error(err)
		}
		done <- resp
	}()
	<-held.entered
	reload(t, s)
	close(held.release)
	if resp := <-done; resp.DegradedReason != "error" {
		t.Fatalf("held miss: %+v, want degraded by its failure", resp)
	}
	return s
}

// TestStraddlingFailureCountsForItsGeneration: a failure scored by the
// replaced model but landing after the swap neither rolls the new
// generation back (with no failure tolerated on probation) nor counts in
// the new generation's breaker (which one failure would trip).
func TestStraddlingFailureCountsForItsGeneration(t *testing.T) {
	s := straddle(t, Options{
		Breaker: resilience.BreakerConfig{FailureThreshold: 1},
		Reload:  &ReloadOptions{ProbationRequests: 200, ProbationMaxFailures: 0},
	})
	if id := s.registry.Live().ID; id != 2 || reloadCounter(s, "rolled_back") != 0 {
		t.Fatalf("live generation %d: the old generation's failure rolled back its successor", id)
	}
	if st := s.live.Load().breaker.State(); st != resilience.StateClosed {
		t.Fatalf("new generation's breaker %v: the old generation's failure counted in it", st)
	}
	if resp, err := s.cascade(context.Background(), s.live.Load(), missClip(1)); err != nil || resp.Degraded || resp.Detector != "cnn-v2" {
		t.Fatalf("first miss of the new generation: %+v, %v; want its primary's verdict", resp, err)
	}
}

// TestStraddlingFailureSkipsNewSLOWindow: the same straddling failure
// is not counted in the quality monitor's SLO window, which the swap
// restarted for the new generation.
func TestStraddlingFailureSkipsNewSLOWindow(t *testing.T) {
	qm := qualitymon.New(qualitymon.Options{SLOTarget: 0.99})
	defer qm.Close()
	straddle(t, Options{Quality: qm})
	if slo := qm.Snapshot().SLO; slo.SlowBad != 0 || slo.SlowGood != 0 {
		t.Fatalf("new generation's SLO window holds %d bad and %d good outcomes, want none", slo.SlowBad, slo.SlowGood)
	}
}

// TestMissDuringSlowReloadDoesNotWait: while a generation is on
// probation, a miss it answers takes no lock a reload holds, so a miss
// that lands during a 500 ms load is answered at its own speed.
func TestMissDuringSlowReloadDoesNotWait(t *testing.T) {
	entered := make(chan struct{})
	var loads atomic.Int32
	ro := &ReloadOptions{Path: "model.hsdnn", ProbationRequests: 200, ProbationMaxFailures: 5}
	ro.Loader = func(string) (core.Detector, error) {
		if loads.Add(1) > 1 {
			close(entered)
			time.Sleep(500 * time.Millisecond)
		}
		return namedDet{name: "cnn-v2", score: 0.9, thr: 0.5}, nil
	}
	s, err := NewServer(Options{Primary: thresholdDetector{}, Reload: ro})
	if err != nil {
		t.Fatal(err)
	}
	reload(t, s)
	if g := s.live.Load(); g.gen.ID != 2 || g.probation == 0 {
		t.Fatalf("generation %d judges %d outcomes, want generation 2 on probation", g.gen.ID, g.probation)
	}
	slow := make(chan struct{})
	go func() {
		defer close(slow)
		reload(t, s)
	}()
	<-entered
	start := time.Now()
	if _, err := s.cascade(context.Background(), s.live.Load(), missClip(0)); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 250*time.Millisecond {
		t.Fatalf("a miss during a 500 ms load took %v: it waited for the reload", took)
	}
	<-slow
}

// TestBreakerOpensOnInterleavedFailures: a primary that fails every
// other call opens its breaker at the 10th outcome, its 5th failure
// among the last 10.
func TestBreakerOpensOnInterleavedFailures(t *testing.T) {
	s, err := NewServer(Options{
		Primary:  newScheduleDetector("flaky", func(n int64) bool { return n%2 == 0 }),
		Fallback: fallbackDetector{},
		Clock:    resilience.NewFakeClock(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if st := s.live.Load().breaker.State(); st != resilience.StateClosed {
			t.Fatalf("breaker %v before outcome %d", st, i+1)
		}
		s.cascade(context.Background(), s.live.Load(), missClip(i))
	}
	if st := s.live.Load().breaker.State(); st != resilience.StateOpen {
		t.Fatalf("breaker %v after 5 failures among 10 outcomes, want open", st)
	}
	if resp, _ := s.cascade(context.Background(), s.live.Load(), missClip(10)); resp.DegradedReason != "breaker-open" {
		t.Fatalf("miss under the open breaker: %+v", resp)
	}
}

// outcomeSchedule is a primary's failure pattern over its calls.
type outcomeSchedule struct {
	name  string
	fails func(n int64) bool
}

// interleaved fails the n-th call when ⌊n·pct/100⌋ > ⌊(n−1)·pct/100⌋.
func interleaved(pct int64) outcomeSchedule {
	return outcomeSchedule{fmt.Sprintf("%d %%", pct), func(n int64) bool { return n*pct/100 > (n-1)*pct/100 }}
}

// burst fails calls 101 to 100+k.
func burst(k int64) outcomeSchedule {
	return outcomeSchedule{fmt.Sprintf("burst %d", k), func(n int64) bool { return n > 100 && n <= 100+k }}
}

// runSchedule drives one server, under a fake clock and hsdserve's
// defaults (breaker 5 / 5 s, probation 200 / 5, SLO target 0.99 over
// 10 s sub-windows), with 20 never-seen clips a second for 200 s, the
// primary failing on sched: the boot generation's, or, with afterReload,
// the one a reload swapped in before the first request. It returns when
// each action was first taken, in seconds from the first request, and
// the degraded answers under each generation.
func runSchedule(t *testing.T, sched outcomeSchedule, afterReload bool) string {
	t.Helper()
	clk := resilience.NewFakeClock(time.Unix(0, 0))
	qm := qualitymon.New(qualitymon.Options{Clock: clk, SubWindow: 10 * time.Second, SLOTarget: 0.99})
	defer qm.Close()
	primary := newScheduleDetector("primary", sched.fails)
	boot := primary
	if afterReload {
		boot = newScheduleDetector("boot", func(int64) bool { return false })
	}
	s := windowServer(t, boot, primary, Options{
		Clock:   clk,
		Quality: qm,
		Reload:  &ReloadOptions{ProbationRequests: 200, ProbationMaxFailures: 5},
	})
	if afterReload {
		reload(t, s)
	}
	const rate, seconds = 20, 200
	var breaker, rollback, warn, page string
	first := func(at *string, took bool, i int) {
		if took && *at == "" {
			*at = fmt.Sprintf("%.2f s", float64(i)/rate)
		}
	}
	degraded := map[int64]int{}
	for i := 0; i < rate*seconds; i++ {
		gen := s.live.Load().gen.ID
		resp, err := s.cascade(context.Background(), s.live.Load(), missClip(i))
		if err != nil {
			t.Fatalf("%s: request %d: %v", sched.name, i, err)
		}
		if resp.Degraded {
			degraded[gen]++
		}
		first(&breaker, s.live.Load().breaker.State() == resilience.StateOpen, i)
		first(&rollback, reloadCounter(s, "rolled_back") > 0, i)
		alert := qm.Snapshot().Alert.State
		first(&warn, alert >= qualitymon.AlertWarning, i)
		first(&page, alert == qualitymon.AlertPage, i)
		clk.Advance(time.Second / rate)
	}
	var row []string
	for _, a := range []struct{ name, at string }{{"breaker", breaker}, {"rollback", rollback}, {"warn", warn}, {"page", page}} {
		if a.at == "" {
			a.at = "–"
		}
		row = append(row, a.name+" "+a.at)
	}
	for id := int64(1); id <= 2; id++ {
		if n := degraded[id]; n > 0 {
			row = append(row, fmt.Sprintf("degraded g%d %d", id, n))
		}
	}
	return strings.Join(row, ", ")
}

// TestChaosOutcomeSchedules pins, for each failure schedule on the boot
// generation and right after a reload, when the breaker first opens,
// probation first rolls back and the SLO alert first warns and pages,
// and how many answers each generation degraded (EXPERIMENTS.md, "One
// outcome window against its rule"). Run it with -v for the table.
func TestChaosOutcomeSchedules(t *testing.T) {
	type cell struct {
		sched       outcomeSchedule
		afterReload bool
		want        string
	}
	var cells []cell
	for _, c := range []struct {
		sched             outcomeSchedule
		boot, afterReload string
	}{
		{outcomeSchedule{"clean", func(int64) bool { return false }},
			"breaker –, rollback –, warn –, page –",
			"breaker –, rollback –, warn –, page –"},
		{interleaved(1),
			"breaker –, rollback –, warn 4.95 s, page –, degraded g1 40",
			"breaker –, rollback –, warn 4.95 s, page –, degraded g2 40"},
		{interleaved(5),
			"breaker –, rollback –, warn 0.95 s, page 0.95 s, degraded g1 200",
			"breaker –, rollback 5.95 s, warn 0.95 s, page 0.95 s, degraded g2 6"},
		{interleaved(20),
			"breaker –, rollback –, warn 0.20 s, page 0.20 s, degraded g1 800",
			"breaker –, rollback 1.45 s, warn 0.20 s, page 0.20 s, degraded g2 6"},
		{interleaved(50),
			"breaker 0.45 s, rollback –, warn 0.05 s, page 0.05 s, degraded g1 3815",
			"breaker –, rollback 0.45 s, warn 0.05 s, page 0.05 s, degraded g2 5"},
		{burst(5),
			"breaker 5.20 s, rollback –, warn 5.05 s, page 5.10 s, degraded g1 104",
			"breaker –, rollback 5.20 s, warn 5.05 s, page 5.10 s, degraded g2 5"},
		{burst(20),
			"breaker 5.20 s, rollback –, warn 5.05 s, page 5.10 s, degraded g1 1604",
			"breaker –, rollback 5.20 s, warn 5.05 s, page 5.10 s, degraded g2 5"},
		{outcomeSchedule{"100 %", func(int64) bool { return true }},
			"breaker 0.20 s, rollback –, warn 0.00 s, page 0.00 s, degraded g1 4000",
			"breaker –, rollback 0.20 s, warn 0.00 s, page 0.00 s, degraded g2 5"},
	} {
		cells = append(cells, cell{c.sched, false, c.boot}, cell{c.sched, true, c.afterReload})
	}
	for _, c := range cells {
		got := runSchedule(t, c.sched, c.afterReload)
		where := "boot"
		if c.afterReload {
			where = "reload"
		}
		t.Logf("| %s | %s | %s |", c.sched.name, where, got)
		if got != c.want {
			t.Errorf("%s on %s: %s\nwant %s", c.sched.name, where, got, c.want)
		}
	}
}

// TestChaosReloadRollbackStress: eight clients post failing and
// succeeding misses while reloads and manual rollbacks run. Every
// rollback is from the generation that was live to the one the last
// swap replaced, hotspot_reloads_total{outcome="rolled_back"} counts
// exactly the rollbacks that went through, and at the end the
// generation gauge, GET /admin/model and the serving path agree.
func TestChaosReloadRollbackStress(t *testing.T) {
	var (
		mu               sync.Mutex
		live, prev       int64 = 1, 0
		wrong            []string
		rollbacks, loads int
	)
	// The registry logs under its lock, so the notices arrive in the
	// order the swaps and rollbacks happened.
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case strings.HasPrefix(format, "registry: swapped in generation"):
			live, prev = args[0].(int64), live
		case strings.HasPrefix(format, "registry: rolled back generation"):
			from, to := args[0].(int64), args[1].(int64)
			if from != live || to != prev {
				wrong = append(wrong, fmt.Sprintf("rollback %d -> %d while %d was live after %d", from, to, live, prev))
			}
			live, prev = to, 0
			rollbacks++
		}
	}
	ro := &ReloadOptions{Path: "model.hsdnn", ProbationRequests: 20, ProbationMaxFailures: 3}
	ro.Logf = logf
	ro.Loader = func(string) (core.Detector, error) {
		mu.Lock()
		loads++
		flaky := loads%2 == 1
		mu.Unlock()
		if flaky { // fails every other call: probation or the breaker rolls it back
			return newScheduleDetector("flaky", func(n int64) bool { return n%2 == 0 }), nil
		}
		return newScheduleDetector("steady", func(n int64) bool { return n%10 == 0 }), nil
	}
	s, err := NewServer(Options{Primary: thresholdDetector{}, Fallback: fallbackDetector{}, Reload: ro})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	var manual atomic.Int64
	for w := 0; w < 8; w++ {
		bodies := make([][]byte, 60)
		for i := range bodies {
			bodies[i] = clipBody(t, []geom.Rect{geom.R(0, 0, 100+w, 100+i)})
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, body := range bodies {
				if got := postBody(t, ts.URL, "/score", body); got.Detector == "" {
					t.Errorf("client %d post %d: no verdict", w, i)
				}
			}
		}(w)
	}
	admin := func(path string, ok int) {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			resp, err := http.Post(ts.URL+path, "text/plain", nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			switch {
			case resp.StatusCode == ok && path == "/admin/rollback":
				manual.Add(1)
			case resp.StatusCode != ok && resp.StatusCode != http.StatusConflict:
				t.Errorf("POST %s: status %d", path, resp.StatusCode)
			}
			time.Sleep(time.Millisecond)
		}
	}
	wg.Add(2)
	go admin("/admin/reload", http.StatusOK)
	go admin("/admin/rollback", http.StatusOK)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for _, w := range wrong {
		t.Error(w)
	}
	if got := reloadCounter(s, "rolled_back"); got != float64(rollbacks) || int64(rollbacks) < manual.Load() {
		t.Fatalf("rolled_back counter %v, %d rollbacks went through, %d of them manual", got, rollbacks, manual.Load())
	}
	gen := liveGeneration(t, ts)
	if gauge := s.Metrics().Gauge("hotspot_model_generation").Value(); gauge != float64(gen) || gen != live || s.live.Load().gen.ID != gen {
		t.Fatalf("gauge %v, /admin/model %d, last logged %d, serving %d: they disagree", gauge, gen, live, s.live.Load().gen.ID)
	}
	t.Logf("%d loads, %d rollbacks (%d manual)", loads, rollbacks, manual.Load())
}
