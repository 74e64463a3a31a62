package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/faultinject"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/resilience"
	"github.com/golitho/hsd/internal/trace"
)

// brokenFallback is a fallback whose every answer is an error.
type brokenFallback struct{ fallbackDetector }

func (brokenFallback) Score(context.Context, layout.Clip) (float64, error) {
	return 0, errors.New("fallback boom")
}

// postBatch posts the clip postScore posts, to /batch.
func postBatch(t *testing.T, url string) (*http.Response, ScoreResponse) {
	t.Helper()
	return postDense(t, url, "/batch")
}

// cascadeOutcome is everything a client, an operator's dashboard and
// the trace store can see of one degraded request.
type cascadeOutcome struct {
	status         int
	degraded       bool
	reason         string
	fallbacks      float64 // hotspot_fallbacks_total delta
	primaryFails   float64 // hotspot_primary_failures_total delta
	flags          string  // the request trace's retention flags
	fallbackSpan   bool    // the trace holds a "fallback" span...
	fallbackFailed bool    // ...carrying an error
}

// TestCascadeParityScoreBatch drives one fault matrix — primary panic,
// error, latency past the deadline, open breaker, each with a working
// fallback, a failing one and none — through /score and through a
// one-request /batch, and holds the two endpoints to the same status,
// verdict provenance, counter deltas and trace record: they run one
// ladder, so any difference is a bug.
func TestCascadeParityScoreBatch(t *testing.T) {
	faults := []struct {
		name     string
		fault    faultinject.Fault
		deadline time.Duration
		prime    int // faulted requests sent first, to open the breaker
		reason   string
		bare     int // status without a fallback
	}{
		{"panic", faultinject.Fault{Panic: "chaos: primary bug"}, 0, 0, "panic", 500},
		{"error", faultinject.Fault{Err: errors.New("chaos error")}, 0, 0, "error", 500},
		{"deadline", faultinject.Fault{Latency: 150 * time.Millisecond}, 10 * time.Millisecond, 0, "deadline", 503},
		{"breaker-open", faultinject.Fault{Err: errors.New("chaos error")}, 0, 1, "breaker-open", 503},
	}
	fallbacks := []struct {
		name string
		det  core.Detector
	}{
		{"fallback", fallbackDetector{}},
		{"broken-fallback", brokenFallback{}},
		{"no-fallback", nil},
	}
	posts := map[string]func(*testing.T, string) (*http.Response, ScoreResponse){
		"/score": postScore,
		"/batch": postBatch,
	}

	run := func(t *testing.T, endpoint string, fb core.Detector, fault faultinject.Fault, deadline time.Duration, prime int) cascadeOutcome {
		faultinject.Reset()
		t.Cleanup(faultinject.Reset)
		// One failure opens the breaker when the case primes it; otherwise
		// it never trips.
		threshold := 100
		if prime > 0 {
			threshold = 1
		}
		tr := trace.New(trace.Config{Capacity: 8, SampleRate: 1})
		s, err := NewServer(Options{
			Primary:        thresholdDetector{},
			Fallback:       fb,
			DeadlineBudget: deadline,
			Breaker:        resilience.BreakerConfig{FailureThreshold: threshold, OpenTimeout: time.Hour},
			Tracer:         tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		faultinject.Set(PrimarySite, fault)
		post := posts[endpoint]
		for i := 0; i < prime; i++ {
			post(t, ts.URL)
		}
		fell := s.Metrics().Counter("hotspot_fallbacks_total")
		failed := s.Metrics().Counter("hotspot_primary_failures_total")
		fell0, failed0 := fell.Value(), failed.Value()
		resp, out := post(t, ts.URL)
		got := cascadeOutcome{
			status:       resp.StatusCode,
			degraded:     out.Degraded,
			reason:       out.DegradedReason,
			fallbacks:    fell.Value() - fell0,
			primaryFails: failed.Value() - failed0,
		}
		traces := tr.Traces(1)
		if len(traces) != 1 || traces[0].Root != "http "+endpoint {
			t.Fatalf("%s: newest trace = %+v, want the request's", endpoint, traces)
		}
		got.flags = strings.Join(traces[0].Flags, ",")
		for _, sp := range traces[0].Spans {
			if sp.Name == "fallback" {
				got.fallbackSpan = true
				got.fallbackFailed = sp.Error != ""
			}
		}
		return got
	}

	for _, f := range faults {
		for _, fb := range fallbacks {
			t.Run(f.name+"/"+fb.name, func(t *testing.T) {
				score := run(t, "/score", fb.det, f.fault, f.deadline, f.prime)
				batch := run(t, "/batch", fb.det, f.fault, f.deadline, f.prime)
				if score != batch {
					t.Errorf("/score and /batch disagree:\n/score %+v\n/batch %+v", score, batch)
				}
				want := cascadeOutcome{status: f.bare, flags: "error"}
				if f.prime == 0 {
					want.primaryFails = 1 // an open breaker never reaches the primary
				}
				switch fb.name {
				case "fallback":
					want.status, want.degraded, want.reason = 200, true, f.reason
					want.fallbacks, want.fallbackSpan = 1, true
					want.flags = "error,degraded"
					if f.prime > 0 {
						want.flags = "degraded" // no failed primary span on this trace
					}
				case "broken-fallback":
					want.status, want.fallbackSpan, want.fallbackFailed = 500, true, true
					want.flags = "error,degraded"
				}
				if score != want {
					t.Errorf("/score outcome %+v, want %+v", score, want)
				}
			})
		}
	}
}

// TestBatchRouteIsScore: /batch is /score under its own request series.
// The same requests — a miss, the hit that follows it, an over-limit
// body, a parse error and a GET — get the same status and body bytes
// from each route, each route on a server of its own. The /batch
// server counts every request under endpoint="/batch", and neither
// server renders a batch_ series.
func TestBatchRouteIsScore(t *testing.T) {
	requests := []struct {
		name, method string
		body         []byte
		status       int
	}{
		{"miss", http.MethodPost, cachedBody, http.StatusOK},
		{"hit", http.MethodPost, cachedBody, http.StatusOK},
		{"over-limit", http.MethodPost, bytes.Repeat([]byte("x"), maxBodyBytes+1), http.StatusRequestEntityTooLarge},
		{"parse-error", http.MethodPost, []byte("not a layout"), http.StatusBadRequest},
		{"get", http.MethodGet, nil, http.StatusMethodNotAllowed},
	}
	type reply struct {
		status int
		body   string
	}
	replies := map[string][]reply{}
	for _, path := range []string{"/score", "/batch"} {
		s, err := NewServer(Options{Primary: thresholdDetector{}})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		for _, rq := range requests {
			req, err := http.NewRequest(rq.method, ts.URL+path, bytes.NewReader(rq.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != rq.status {
				t.Errorf("%s %s: status %d, want %d", rq.name, path, resp.StatusCode, rq.status)
			}
			replies[path] = append(replies[path], reply{resp.StatusCode, string(body)})
		}
		if hits, misses, _ := cacheCounts(s); hits != 1 || misses != 1 {
			t.Errorf("%s: %v hits, %v misses, want 1 and 1", path, hits, misses)
		}
		counted := 0.0
		for _, line := range strings.Split(metricsText(t, ts.URL), "\n") {
			name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
			if strings.HasPrefix(name, "batch_") {
				t.Errorf("%s: /metrics renders a batch series: %s", path, line)
			}
			if strings.HasPrefix(line, "http_requests_total{") {
				if !strings.Contains(line, `endpoint="`+path+`"`) {
					t.Errorf("%s: a request counted under another endpoint: %s", path, line)
				}
				v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
				if err != nil {
					t.Fatal(err)
				}
				counted += v
			}
		}
		if counted != float64(len(requests)) {
			t.Errorf("%s: http_requests_total counts %v requests, want %d", path, counted, len(requests))
		}
	}
	for i, rq := range requests {
		if score, batch := replies["/score"][i], replies["/batch"][i]; score != batch {
			t.Errorf("%s: /score answered %+v, /batch %+v", rq.name, score, batch)
		}
	}
}
