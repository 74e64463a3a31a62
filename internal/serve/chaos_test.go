package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/golitho/hsd/internal/faultinject"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/resilience"
)

// fallbackDetector is the distinguishable shallow detector of the chaos
// cascade tests.
type fallbackDetector struct{ thresholdDetector }

func (fallbackDetector) Name() string { return "shallow-fallback" }

func postScore(t *testing.T, url string) (*http.Response, ScoreResponse) {
	t.Helper()
	return postDense(t, url, "/score")
}

// postDense posts the clip of one rectangle filling the window to path
// and decodes a 200 verdict.
func postDense(t *testing.T, url, path string) (*http.Response, ScoreResponse) {
	t.Helper()
	resp, err := http.Post(url+path, "text/plain",
		gltBody(t, geom.R(0, 0, 1024, 1024)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ScoreResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func metricsText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestChaosPrimaryPanicsDegrade injects unlimited panics into the
// primary detector and asserts the cascade absorbs them: every request
// is answered 200 with a degraded fallback verdict, zero 5xx, the
// breaker opens, and the telemetry tells the story at GET /metrics.
func TestChaosPrimaryPanicsDegrade(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	s, err := NewServer(Options{
		Primary:  thresholdDetector{},
		Fallback: fallbackDetector{},
		Breaker:  resilience.BreakerConfig{FailureThreshold: 3, OpenTimeout: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	faultinject.Set(PrimarySite, faultinject.Fault{Panic: "chaos: primary scoring bug"})

	const n = 10
	for i := 0; i < n; i++ {
		resp, out := postScore(t, ts.URL)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d, want 200 degraded", i, resp.StatusCode)
		}
		if !out.Degraded || out.Detector != "shallow-fallback" {
			t.Fatalf("request %d: %+v, want degraded fallback verdict", i, out)
		}
		if !out.Hotspot { // the dense clip is a hotspot under the fallback too
			t.Fatalf("request %d: degraded verdict lost the hotspot: %+v", i, out)
		}
		// Before the breaker opens the reason is the panic; after, the
		// primary is not even tried.
		if i < 3 && out.DegradedReason != "panic" {
			t.Fatalf("request %d: reason = %q, want panic", i, out.DegradedReason)
		}
		if i >= 3 && out.DegradedReason != "breaker-open" {
			t.Fatalf("request %d: reason = %q, want breaker-open", i, out.DegradedReason)
		}
	}
	// Only the pre-breaker requests ever reached the primary.
	if got := faultinject.Fired(PrimarySite); got != 3 {
		t.Fatalf("primary fired %d times, want 3 (then breaker opened)", got)
	}

	text := metricsText(t, ts.URL)
	for _, want := range []string{
		"hotspot_breaker_state 2",
		fmt.Sprintf("hotspot_fallbacks_total %d", n),
		"hotspot_primary_failures_total 3",
		fmt.Sprintf(`http_requests_total{code="200",endpoint="/score"} %d`, n),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n---\n%s", want, text)
		}
	}
	for _, reject := range []string{`code="500"`, `code="502"`, `code="503"`} {
		if strings.Contains(text, reject) {
			t.Errorf("metrics contain a 5xx (%s) under chaos with a fallback\n---\n%s", reject, text)
		}
	}
}

// TestChaosPrimaryLatencyDeadline injects latency beyond the request
// deadline budget: requests degrade with reason "deadline".
func TestChaosPrimaryLatencyDeadline(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	s, err := NewServer(Options{
		Primary:        thresholdDetector{},
		Fallback:       fallbackDetector{},
		DeadlineBudget: 25 * time.Millisecond,
		Breaker:        resilience.BreakerConfig{FailureThreshold: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	faultinject.Set(PrimarySite, faultinject.Fault{Latency: 300 * time.Millisecond, Count: 2})
	for i := 0; i < 2; i++ {
		resp, out := postScore(t, ts.URL)
		if resp.StatusCode != http.StatusOK || !out.Degraded || out.DegradedReason != "deadline" {
			t.Fatalf("request %d: status=%d %+v, want degraded deadline verdict", i, resp.StatusCode, out)
		}
	}
	// Fault exhausted: the primary answers again, undegraded.
	resp, out := postScore(t, ts.URL)
	if resp.StatusCode != http.StatusOK || out.Degraded {
		t.Fatalf("post-chaos: status=%d %+v, want healthy primary verdict", resp.StatusCode, out)
	}
}

// TestChaosBreakerRecovery walks the full degradation and recovery arc
// on a fake clock: failures open the breaker, the cool-down elapses, a
// half-open probe succeeds, and the primary serves again.
func TestChaosBreakerRecovery(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	clk := resilience.NewFakeClock(time.Unix(0, 0))
	s, err := NewServer(Options{
		Primary:  thresholdDetector{},
		Fallback: fallbackDetector{},
		Breaker:  resilience.BreakerConfig{FailureThreshold: 2, OpenTimeout: 30 * time.Second},
		Clock:    clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	readyStatus := func() ReadyResponse {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out ReadyResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	if r := readyStatus(); r.Status != "ready" || r.Breaker != "closed" || r.Fallback != "shallow-fallback" {
		t.Fatalf("initial readyz = %+v", r)
	}

	// Two injected failures trip the breaker.
	faultinject.Set(PrimarySite, faultinject.Fault{Err: fmt.Errorf("chaos error"), Count: 2})
	for i := 0; i < 2; i++ {
		if _, out := postScore(t, ts.URL); !out.Degraded || out.DegradedReason != "error" {
			t.Fatalf("request %d: %+v, want degraded error verdict", i, out)
		}
	}
	if r := readyStatus(); r.Status != "degraded" || r.Breaker != "open" {
		t.Fatalf("post-trip readyz = %+v, want degraded/open", r)
	}

	// While open, the primary is bypassed without being called.
	if _, out := postScore(t, ts.URL); out.DegradedReason != "breaker-open" {
		t.Fatalf("open-breaker verdict = %+v", out)
	}
	if got := faultinject.Fired(PrimarySite); got != 2 {
		t.Fatalf("primary called %d times, want 2", got)
	}

	// Cool-down elapses; the next request is the probe, the fault is
	// exhausted, so it succeeds and closes the breaker.
	clk.Advance(31 * time.Second)
	if _, out := postScore(t, ts.URL); out.Degraded {
		t.Fatalf("probe verdict = %+v, want healthy primary", out)
	}
	if r := readyStatus(); r.Status != "ready" || r.Breaker != "closed" {
		t.Fatalf("recovered readyz = %+v, want ready/closed", r)
	}
}

// heldDetector is thresholdDetector whose Score announces itself on
// entered and then waits for release: a probe the test holds in flight.
type heldDetector struct {
	thresholdDetector
	entered, release chan struct{}
}

func (d heldDetector) Score(ctx context.Context, clip layout.Clip) (float64, error) {
	d.entered <- struct{}{}
	<-d.release
	return d.thresholdDetector.Score(ctx, clip)
}

// TestChaosBreakerGaugeFollowsState: hotspot_breaker_state is read from
// the breaker at scrape time, so a scrape shows every state the breaker
// passes through: closed, open after the trip, half-open while the probe
// is in flight, and closed once the probe succeeds.
func TestChaosBreakerGaugeFollowsState(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	clk := resilience.NewFakeClock(time.Unix(0, 0))
	det := heldDetector{entered: make(chan struct{}), release: make(chan struct{})}
	s, err := NewServer(Options{
		Primary:  det,
		Fallback: fallbackDetector{},
		Breaker:  resilience.BreakerConfig{FailureThreshold: 2, OpenTimeout: 30 * time.Second},
		Clock:    clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	gauge := func(want resilience.BreakerState) {
		t.Helper()
		line := fmt.Sprintf("\nhotspot_breaker_state %d\n", want)
		if text := metricsText(t, ts.URL); !strings.Contains(text, line) {
			t.Fatalf("breaker %v: metrics lack %q\n---\n%s", want, line[1:len(line)-1], text)
		}
	}

	gauge(resilience.StateClosed)
	// The faults fire before the detector runs, so the trip never
	// reaches heldDetector.Score.
	faultinject.Set(PrimarySite, faultinject.Fault{Err: fmt.Errorf("chaos error"), Count: 2})
	for i := 0; i < 2; i++ {
		if _, out := postScore(t, ts.URL); out.DegradedReason != "error" {
			t.Fatalf("request %d: %+v, want degraded error verdict", i, out)
		}
	}
	gauge(resilience.StateOpen)

	clk.Advance(31 * time.Second)
	body := gltBody(t, geom.R(0, 0, 1024, 1024))
	probe := make(chan ScoreResponse)
	go func() {
		resp, err := http.Post(ts.URL+"/score", "text/plain", body)
		var out ScoreResponse
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
		}
		if err != nil {
			t.Error(err)
		}
		probe <- out
	}()
	select {
	case <-det.entered:
	case out := <-probe:
		t.Fatalf("probe answered %+v without reaching the primary", out)
	}
	gauge(resilience.StateHalfOpen)
	close(det.release)
	if out := <-probe; out.Degraded {
		t.Fatalf("probe verdict = %+v, want the primary's", out)
	}
	gauge(resilience.StateClosed)
}

// TestChaosShedding fills the admission bucket on a frozen clock: the
// overflow request gets 429 + Retry-After before any scoring work, and
// requests_shed_total records it.
func TestChaosShedding(t *testing.T) {
	clk := resilience.NewFakeClock(time.Unix(0, 0))
	s, err := NewServer(Options{
		Primary:  thresholdDetector{},
		ShedRate: 2,
		Clock:    clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	for i := 0; i < 2; i++ {
		if resp, _ := postScore(t, ts.URL); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d inside burst: status = %d", i, resp.StatusCode)
		}
	}
	resp, _ := postScore(t, ts.URL)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if got := s.Metrics().Counter("requests_shed_total").Value(); got != 1 {
		t.Fatalf("requests_shed_total = %v, want 1", got)
	}
	// Tokens refill once the clock advances.
	clk.Advance(time.Second)
	if resp, _ := postScore(t, ts.URL); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-refill status = %d", resp.StatusCode)
	}
}

// TestChaosNoFallback: without a fallback the pre-breaker failures are
// 5xx (the documented exception) and the open breaker yields 503 with
// Retry-After; /readyz reports unavailable.
func TestChaosNoFallback(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	s, err := NewServer(Options{
		Primary: thresholdDetector{},
		Breaker: resilience.BreakerConfig{FailureThreshold: 2, OpenTimeout: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	faultinject.Set(PrimarySite, faultinject.Fault{Err: fmt.Errorf("chaos error")})
	for i := 0; i < 2; i++ {
		if resp, _ := postScore(t, ts.URL); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("pre-breaker request %d: status = %d, want 500", i, resp.StatusCode)
		}
	}
	resp, _ := postScore(t, ts.URL)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-breaker status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
	readyResp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer readyResp.Body.Close()
	if readyResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz status = %d, want 503", readyResp.StatusCode)
	}
}

// TestChaosVerifyFault: injected oracle faults surface as 500 on
// /verify (no fallback exists for verification) and clear cleanly.
func TestChaosVerifyFault(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	ts := newTestServer(t, true)

	faultinject.Set("lithosim.simulate", faultinject.Fault{Err: fmt.Errorf("chaos sim error"), Count: 1})
	resp, err := http.Post(ts.URL+"/verify", "text/plain",
		gltBody(t, geom.R(0, 400, 1024, 500), geom.R(0, 536, 1024, 636)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("fault status = %d, want 500", resp.StatusCode)
	}
	// Fault cleared: verification works again.
	resp2, err := http.Post(ts.URL+"/verify", "text/plain",
		gltBody(t, geom.R(0, 400, 1024, 500), geom.R(0, 536, 1024, 636)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-chaos verify status = %d, want 200", resp2.StatusCode)
	}
}

// TestReadyzStateMatrix pins the full /readyz contract across all three
// states, driving the breaker through forced transitions on a fake
// clock. With a fallback configured the posture walks ready -> degraded
// -> ready; without one the open breaker reports unavailable with 503.
func TestReadyzStateMatrix(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	readyz := func(t *testing.T, url string) (int, ReadyResponse) {
		t.Helper()
		resp, err := http.Get(url + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out ReadyResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	trip := func(t *testing.T, url string, n int) {
		t.Helper()
		faultinject.Set(PrimarySite, faultinject.Fault{Err: fmt.Errorf("chaos error"), Count: n})
		for i := 0; i < n; i++ {
			resp, _ := postScore(t, url)
			resp.Body.Close()
		}
	}

	t.Run("with-fallback", func(t *testing.T) {
		faultinject.Reset()
		t.Cleanup(faultinject.Reset)
		clk := resilience.NewFakeClock(time.Unix(0, 0))
		s, err := NewServer(Options{
			Primary:  thresholdDetector{},
			Fallback: fallbackDetector{},
			Breaker:  resilience.BreakerConfig{FailureThreshold: 2, OpenTimeout: 10 * time.Second},
			Clock:    clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)

		if code, r := readyz(t, ts.URL); code != http.StatusOK || r.Status != "ready" || r.Breaker != "closed" {
			t.Fatalf("initial: code=%d %+v, want 200 ready/closed", code, r)
		}
		trip(t, ts.URL, 2)
		if code, r := readyz(t, ts.URL); code != http.StatusOK || r.Status != "degraded" || r.Breaker != "open" {
			t.Fatalf("tripped: code=%d %+v, want 200 degraded/open", code, r)
		}
		// Degraded still answers 200 so load balancers keep routing to
		// the fallback; only unavailable drops to 503.
		clk.Advance(11 * time.Second)
		if resp, out := postScore(t, ts.URL); out.Degraded {
			resp.Body.Close()
			t.Fatalf("half-open probe degraded: %+v", out)
		}
		if code, r := readyz(t, ts.URL); code != http.StatusOK || r.Status != "ready" || r.Breaker != "closed" {
			t.Fatalf("recovered: code=%d %+v, want 200 ready/closed", code, r)
		}
	})

	t.Run("no-fallback", func(t *testing.T) {
		faultinject.Reset()
		t.Cleanup(faultinject.Reset)
		clk := resilience.NewFakeClock(time.Unix(0, 0))
		s, err := NewServer(Options{
			Primary: thresholdDetector{},
			Breaker: resilience.BreakerConfig{FailureThreshold: 2, OpenTimeout: 10 * time.Second},
			Clock:   clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)

		if code, r := readyz(t, ts.URL); code != http.StatusOK || r.Status != "ready" {
			t.Fatalf("initial: code=%d %+v, want 200 ready", code, r)
		}
		trip(t, ts.URL, 2)
		code, r := readyz(t, ts.URL)
		if code != http.StatusServiceUnavailable || r.Status != "unavailable" || r.Breaker != "open" {
			t.Fatalf("tripped: code=%d %+v, want 503 unavailable/open", code, r)
		}
		if r.Fallback != "" {
			t.Fatalf("no-fallback server advertises fallback %q", r.Fallback)
		}
		// Recovery works without a fallback too: cool-down, successful
		// probe, ready again.
		clk.Advance(11 * time.Second)
		if resp, _ := postScore(t, ts.URL); resp.StatusCode != http.StatusOK {
			t.Fatalf("probe status = %d, want 200", resp.StatusCode)
		}
		if code, r := readyz(t, ts.URL); code != http.StatusOK || r.Status != "ready" || r.Breaker != "closed" {
			t.Fatalf("recovered: code=%d %+v, want 200 ready/closed", code, r)
		}
	})
}
