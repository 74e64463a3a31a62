package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
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

func (brokenFallback) Score(layout.Clip) (float64, error) {
	return 0, errors.New("fallback boom")
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
			BatchMaxWait:   time.Millisecond,
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

// TestCascadeBatchFallbackSpans: a coalesced batch that degrades gives
// every member its own "degrade" event and its own "fallback" span
// under the leader's batch.flush, and a member whose fallback fails has
// the error on that span.
func TestCascadeBatchFallbackSpans(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	tr := trace.New(trace.Config{Capacity: 8, SampleRate: 1})
	s, err := NewServer(Options{
		Primary:  thresholdDetector{},
		Fallback: brokenFallback{},
		Breaker:  resilience.BreakerConfig{FailureThreshold: 100},
		Tracer:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set(PrimarySite, faultinject.Fault{Err: errors.New("chaos error")})
	ctx := trace.WithTracer(context.Background(), tr)
	ctx, root := trace.Start(ctx, "leader")
	clip := testBatchClip(t)
	items := []scoreItem{{clip: clip, span: root}, {clip: clip, span: root}}
	for i, res := range s.cascade(ctx, items) {
		if res.err == nil || !strings.Contains(res.err.Error(), "fallback (after primary error)") {
			t.Errorf("item %d: err = %v, want the wrapped fallback failure", i, res.err)
		}
	}
	root.End()
	rec := tr.Traces(1)[0]
	failed, degrades := 0, 0
	for _, sp := range rec.Spans {
		if sp.Name == "fallback" && sp.Error != "" {
			failed++
		}
		for _, ev := range sp.Events {
			if ev.Name == "degrade" {
				degrades++
			}
		}
	}
	if failed != 2 || degrades != 2 {
		t.Fatalf("trace has %d failed fallback spans and %d degrade events, want 2 and 2:\n%s",
			failed, degrades, fmt.Sprintf("%+v", rec.Spans))
	}
}
