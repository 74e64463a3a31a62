// Package serve exposes a trained hotspot detector as an HTTP service:
// physical-verification flows POST layout clips and receive JSON
// verdicts, optionally backed by lithography-simulation verification.
//
// Endpoints:
//
//	POST /score   body: GLT layout of one clip window -> {"score":..,"hotspot":..}
//	POST /batch   same body; concurrent requests coalesce into one scoring pass
//	POST /verify  same body -> full oracle verdict with defects
//	GET  /healthz -> {"status":"ok","detector":"..."}  (liveness)
//	GET  /readyz  -> breaker state + fallback availability (readiness)
//	GET  /metrics -> Prometheus text exposition of serving telemetry
//
// Serving is a graceful-degradation cascade over the paper's
// shallow-to-deep detector spectrum: the primary (deep, accurate,
// expensive) detector is guarded by a per-request deadline budget and a
// circuit breaker; when it times out, errors, panics, or the breaker is
// open, the request is re-scored by the shallow fallback detector and
// answered with "degraded": true instead of an error. A token-bucket
// load shedder rejects excess traffic with 429 + Retry-After before any
// work is queued. Every stage is observable: hotspot_fallbacks_total,
// requests_shed_total, hotspot_breaker_state, and the per-endpoint
// request metrics.
//
// The service is stateless per request and safe for concurrent use:
// every request scores on the one fitted primary (or fallback) detector,
// which core.Detector's contract makes safe to share, so concurrent
// requests run in parallel with no lock on the scoring path.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/faultinject"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/lithosim"
	"github.com/golitho/hsd/internal/qualitymon"
	"github.com/golitho/hsd/internal/registry"
	"github.com/golitho/hsd/internal/resilience"
	"github.com/golitho/hsd/internal/telemetry"
	"github.com/golitho/hsd/internal/trace"
)

// maxBodyBytes bounds accepted request bodies (a clip is a few KiB).
const maxBodyBytes = 4 << 20

// PrimarySite is the faultinject hook name fired inside primary-detector
// scoring, for chaos-testing the degradation cascade.
const PrimarySite = "serve.primary"

// Options configures a Server. Primary is required; everything else has
// a working zero value.
type Options struct {
	// Primary is the detector of record (typically the deep CNN).
	Primary core.Detector
	// Fallback, when non-nil, answers requests the primary cannot:
	// deadline overruns, panics, errors, and breaker-open rejections
	// produce a degraded verdict from this (typically shallow) detector
	// instead of a 5xx.
	Fallback core.Detector
	// Sim enables POST /verify when non-nil.
	Sim *lithosim.Simulator
	// ClipNM/CoreFrac describe the windows the detectors were trained
	// on (defaults 1024 and 0.5).
	ClipNM   int
	CoreFrac float64
	// DeadlineBudget is the per-request compute budget: each scoring or
	// verification request gets a context deadline this far out (capped
	// by any tighter client deadline). Zero disables the budget.
	DeadlineBudget time.Duration
	// Breaker tunes the primary-detector circuit breaker; the zero
	// value gets the resilience defaults (5 consecutive failures trip,
	// 5s cool-down, 1 probe).
	Breaker resilience.BreakerConfig
	// ShedRate, when positive, enables token-bucket admission control
	// at this many requests per second (ShedBurst capacity, default
	// max(ShedRate, 1)). Shed requests get 429 with Retry-After before
	// any parsing or scoring work happens.
	ShedRate  float64
	ShedBurst float64
	// BatchMaxSize caps how many POST /batch requests are coalesced into
	// one scoring pass (default 32).
	BatchMaxSize int
	// BatchMaxWait is how long the first request of a batch waits for
	// company before flushing a partial batch (default 2ms).
	BatchMaxWait time.Duration
	// Clock drives breaker and shedder timing (default the wall clock).
	Clock resilience.Clock
	// Metrics is the registry the server's series land in and GET
	// /metrics renders. A process that wants one page hands the same
	// registry to the tracer, the quality monitor, the router's hooks and
	// the data engine when it builds them, then to the server; nil means a
	// private registry, reachable through Server.Metrics.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, enables request tracing: every request runs
	// under a root span whose children attribute time to pipeline stages,
	// retained under the tracer's tail-sampling policy and served by
	// GET /debug/traces. Built with Metrics above, its
	// hotspot_stage_seconds histograms land in /metrics.
	Tracer *trace.Tracer
	// Reload, when non-nil, puts the primary detector behind a versioned
	// model registry with validated hot reload: POST /admin/reload loads
	// a candidate, gates it on the golden set against the live model, and
	// swaps atomically; post-swap primary outcomes feed a probation window
	// that rolls back automatically when errors spike.
	Reload *ReloadOptions
	// Quality, when non-nil, enables model-quality monitoring: every
	// cascade answer feeds the monitor's score sketches (stage "primary"
	// or "fallback"), primary outcomes feed its SLO window, and
	// GET /debug/quality serves its snapshot; its gauges and drift events
	// go where its own Options.Metrics and Options.Tracer say. With hot
	// reload enabled
	// the registry resets the monitor and installs baseline sidecars on
	// every generation change.
	Quality *qualitymon.Monitor
}

// Server wires the detector cascade (and optionally the oracle) into an
// http.Handler.
type Server struct {
	opts Options
	// primary is swapped atomically on validated hot reload; every
	// request loads it exactly once so detector name, threshold, and
	// score always describe the same generation.
	primary  atomic.Pointer[core.Detector]
	registry *registry.Registry // nil when hot reload is disabled
	fallback core.Detector      // nil when no fallback is configured
	sim      *lithosim.Simulator
	clipNM   int
	coreFrac float64

	breaker *resilience.Breaker
	shed    *resilience.Shedder // nil when shedding is disabled
	batch   *batcher
	tracer  *trace.Tracer       // nil when tracing is disabled
	quality *qualitymon.Monitor // nil when quality monitoring is disabled

	reg          *telemetry.Registry
	panics       *telemetry.Counter
	fallbacks    *telemetry.Counter
	shedTotal    *telemetry.Counter
	primaryErrs  *telemetry.Counter
	batchSize    *telemetry.Histogram
	batchLatency *telemetry.Histogram
}

// NewServer constructs a Server from Options. Options.Primary must be a
// fitted detector.
func NewServer(opts Options) (*Server, error) {
	if opts.Primary == nil {
		return nil, fmt.Errorf("serve: nil primary detector")
	}
	if opts.ClipNM <= 0 {
		opts.ClipNM = 1024
	}
	if opts.CoreFrac <= 0 || opts.CoreFrac > 1 {
		opts.CoreFrac = 0.5
	}
	if opts.Clock == nil {
		opts.Clock = resilience.Real
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	reg.SetHelp("http_requests_total", "Requests by endpoint and status code.")
	reg.SetHelp("http_errors_total", "Responses with status >= 400 by endpoint.")
	reg.SetHelp("http_request_seconds", "Request latency by endpoint.")
	reg.SetHelp("http_inflight_requests", "Requests currently being served.")
	reg.SetHelp("http_panics_total", "Panics recovered during request handling.")
	reg.SetHelp("hotspot_fallbacks_total", "Requests answered by the fallback detector (degraded verdicts).")
	reg.SetHelp("requests_shed_total", "Requests rejected 429 by the admission token bucket.")
	reg.SetHelp("hotspot_breaker_state", "Primary-detector circuit breaker state: 0=closed, 1=half-open, 2=open.")
	reg.SetHelp("hotspot_primary_failures_total", "Primary detector failures (errors, panics, deadline overruns).")
	reg.SetHelp("batch_size", "Requests coalesced per /batch scoring pass.")
	reg.SetHelp("batch_latency_seconds", "Latency of one /batch scoring pass (flush to results).")
	reg.SetHelp("hotspot_inflight_requests", "Requests in flight, counted before admission control so shed traffic is visible.")
	telemetry.RegisterRuntimeMetrics(reg)

	if opts.BatchMaxSize <= 0 {
		opts.BatchMaxSize = 32
	}
	if opts.BatchMaxWait <= 0 {
		opts.BatchMaxWait = 2 * time.Millisecond
	}
	s := &Server{
		opts:         opts,
		sim:          opts.Sim,
		clipNM:       opts.ClipNM,
		coreFrac:     opts.CoreFrac,
		reg:          reg,
		panics:       reg.Counter("http_panics_total"),
		fallbacks:    reg.Counter("hotspot_fallbacks_total"),
		shedTotal:    reg.Counter("requests_shed_total"),
		primaryErrs:  reg.Counter("hotspot_primary_failures_total"),
		batchSize:    reg.Histogram("batch_size", []float64{1, 2, 4, 8, 16, 32, 64}),
		batchLatency: reg.Histogram("batch_latency_seconds", nil),
		tracer:       opts.Tracer,
		quality:      opts.Quality,
	}
	s.primary.Store(&opts.Primary)
	s.batch = &batcher{
		srv:     s,
		maxSize: opts.BatchMaxSize,
		maxWait: opts.BatchMaxWait,
		clock:   opts.Clock,
	}
	s.fallback = opts.Fallback
	bcfg := opts.Breaker
	if bcfg.Clock == nil {
		bcfg.Clock = opts.Clock
	}
	stateGauge := reg.Gauge("hotspot_breaker_state")
	userOnState := bcfg.OnStateChange
	bcfg.OnStateChange = func(st resilience.BreakerState) {
		stateGauge.Set(float64(st))
		if userOnState != nil {
			userOnState(st)
		}
	}
	s.breaker = resilience.NewBreaker(bcfg)
	if opts.ShedRate > 0 {
		s.shed = resilience.NewShedder(resilience.ShedderConfig{
			Rate: opts.ShedRate, Burst: opts.ShedBurst, Clock: opts.Clock,
		})
	}
	if opts.Reload != nil {
		rcfg := opts.Reload.Config
		if rcfg.Loader == nil {
			return nil, fmt.Errorf("serve: Reload options need a Loader")
		}
		rcfg.OnSwap = func(gen *registry.Generation) {
			s.primary.Store(&gen.Detector)
		}
		rcfg.Quality = qualityHook(s.quality)
		rcfg.Metrics = reg
		s.registry = registry.New(opts.Primary, rcfg)
	}
	return s, nil
}

// Registry returns the model registry, or nil when hot reload is
// disabled. Callers use it to start a Watch goroutine on a model path.
func (s *Server) Registry() *registry.Registry { return s.registry }

// Metrics returns the server's telemetry registry (Options.Metrics, or
// the private one), for reading the serving metrics in tests and
// benchmarks.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// Handler returns the routed HTTP handler with instrumentation and panic
// recovery applied to every endpoint.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealth))
	mux.HandleFunc("/readyz", s.instrument("/readyz", s.handleReady))
	mux.HandleFunc("/score", s.instrument("/score", s.handleScore))
	mux.HandleFunc("/batch", s.instrument("/batch", s.handleBatch))
	mux.HandleFunc("/verify", s.instrument("/verify", s.handleVerify))
	mux.HandleFunc("/metrics", s.instrument("/metrics", s.handleMetrics))
	if s.registry != nil {
		mux.HandleFunc("/admin/reload", s.instrument("/admin/reload", s.handleReload))
		mux.HandleFunc("/admin/rollback", s.instrument("/admin/rollback", s.handleRollback))
		mux.HandleFunc("/admin/model", s.instrument("/admin/model", s.handleModel))
	}
	if s.tracer != nil {
		// Uninstrumented on purpose: trace inspection must not perturb
		// the request metrics or generate traces of its own.
		mux.HandleFunc("/debug/traces", s.handleTraces)
		mux.HandleFunc("/debug/traces/chrome", s.handleTracesChrome)
	}
	if s.quality != nil {
		// Uninstrumented for the same reason as /debug/traces.
		mux.HandleFunc("/debug/quality", s.handleQuality)
	}
	return mux
}

// handleQuality serves the quality monitor's full snapshot: per-series
// score sketches with drift scores against the training baseline,
// spot-check confusion, SLO burn rates, and the alert state. Taking the
// snapshot also advances the alert state machine.
func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, s.quality.Snapshot())
}

// statusRecorder captures the response status for instrumentation.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// instrument wraps a handler with the per-endpoint metrics and panic
// recovery.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	requests := func(code int) *telemetry.Counter {
		return s.reg.Counter("http_requests_total",
			telemetry.L("endpoint", endpoint), telemetry.L("code", fmt.Sprint(code)))
	}
	errCount := s.reg.Counter("http_errors_total", telemetry.L("endpoint", endpoint))
	latency := s.reg.Histogram("http_request_seconds", nil, telemetry.L("endpoint", endpoint))
	inflight := s.reg.Gauge("http_inflight_requests")
	// hotspot_inflight_requests is incremented before admission control
	// runs (admit happens inside h), so a saturated server's shed traffic
	// still registers as load.
	hotspotInflight := s.reg.Gauge("hotspot_inflight_requests")

	return func(w http.ResponseWriter, r *http.Request) {
		inflight.Inc()
		hotspotInflight.Inc()
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		ctx, root := trace.Start(trace.WithTracer(r.Context(), s.tracer),
			"http "+endpoint, trace.A("method", r.Method))
		if root != nil {
			r = r.WithContext(ctx)
		}
		defer func() {
			if p := recover(); p != nil {
				s.panics.Inc()
				root.SetFlag(trace.FlagPanic)
				root.AddEvent("panic", trace.A("value", fmt.Sprint(p)))
				if rec.status == 0 {
					http.Error(rec, fmt.Sprintf("internal error: %v", p), http.StatusInternalServerError)
				}
			}
			if rec.status == 0 {
				rec.status = http.StatusOK
			}
			latency.ObserveDuration(time.Since(start))
			requests(rec.status).Inc()
			if rec.status >= 400 {
				errCount.Inc()
			}
			root.SetAttrInt("status", rec.status)
			if rec.status >= 500 {
				root.SetFlag(trace.FlagError)
			}
			root.End()
			inflight.Dec()
			hotspotInflight.Dec()
		}()
		h(rec, r)
	}
}

// ScoreResponse is the /score reply. Degraded responses carry the
// fallback detector's verdict: Detector/Score/Threshold describe the
// detector that actually answered.
type ScoreResponse struct {
	Detector  string  `json:"detector"`
	Score     float64 `json:"score"`
	Threshold float64 `json:"threshold"`
	Hotspot   bool    `json:"hotspot"`
	// Degraded is true when the fallback detector answered because the
	// primary was unavailable (deadline, panic, error, or open breaker).
	Degraded bool `json:"degraded,omitempty"`
	// DegradedReason says why the primary was bypassed: "deadline",
	// "panic", "error", or "breaker-open".
	DegradedReason string `json:"degradedReason,omitempty"`
}

// VerifyResponse is the /verify reply.
type VerifyResponse struct {
	Hotspot    bool         `json:"hotspot"`
	PVBandArea float64      `json:"pvBandArea"`
	Defects    []DefectJSON `json:"defects"`
}

// DefectJSON is one defect in a /verify reply.
type DefectJSON struct {
	Type   string `json:"type"`
	Corner string `json:"corner"`
	X      int    `json:"x"`
	Y      int    `json:"y"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"status":   "ok",
		"detector": (*s.primary.Load()).Name(),
	})
}

// ReadyResponse is the /readyz reply: the degradation posture of the
// cascade, for load balancers and operators.
type ReadyResponse struct {
	// Status is "ready" (primary serving), "degraded" (primary breaker
	// open but the fallback is answering), or "unavailable" (breaker
	// open, no fallback: requests will 5xx).
	Status   string `json:"status"`
	Breaker  string `json:"breaker"`
	Primary  string `json:"primary"`
	Fallback string `json:"fallback,omitempty"`
	// DeadlineBudget is the per-request budget, e.g. "500ms"; empty
	// when disabled.
	DeadlineBudget string `json:"deadlineBudget,omitempty"`
	// Shedding is true when admission control is enabled.
	Shedding bool `json:"shedding"`
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	out := ReadyResponse{
		Breaker:  s.breaker.State().String(),
		Primary:  (*s.primary.Load()).Name(),
		Shedding: s.shed != nil,
	}
	if s.fallback != nil {
		out.Fallback = s.fallback.Name()
	}
	if s.opts.DeadlineBudget > 0 {
		out.DeadlineBudget = s.opts.DeadlineBudget.String()
	}
	status := http.StatusOK
	switch {
	case s.breaker.State() != resilience.StateOpen:
		out.Status = "ready"
	case s.fallback != nil:
		out.Status = "degraded"
	default:
		out.Status = "unavailable"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// admit applies load shedding before any request work is done. It
// writes the 429 itself and returns false when the request is shed;
// shed requests are flagged on their trace so the tail sampler always
// retains them.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	if s.shed == nil {
		return true
	}
	ok, retryAfter := s.shed.Allow()
	if ok {
		return true
	}
	s.shedTotal.Inc()
	if sp := trace.FromContext(r.Context()); sp != nil {
		sp.AddEvent("shed", trace.A("retryAfter", retryAfter.String()))
		sp.SetFlag(trace.FlagShed)
	}
	secs := int(retryAfter/time.Second) + 1
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, "overloaded: request shed, see Retry-After", http.StatusTooManyRequests)
	return false
}

// readClip parses the request body (GLT layout) into a centred clip.
// The body is buffered first so an over-limit body surfaces as
// *http.MaxBytesError (413) rather than as a parse error on the
// truncated tail.
func (s *Server) readClip(w http.ResponseWriter, r *http.Request) (layout.Clip, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return layout.Clip{}, fmt.Errorf("read body: %w", err)
	}
	l, err := layout.Read(bytes.NewReader(body))
	if err != nil {
		return layout.Clip{}, fmt.Errorf("parse layout: %w", err)
	}
	b := l.Bounds()
	if b.Empty() {
		return layout.Clip{}, fmt.Errorf("layout has no shapes")
	}
	c := b.Center()
	return l.ClipAt(geom.Pt(c.X, c.Y), s.clipNM, s.coreFrac)
}

// clipError maps a readClip failure to its HTTP status: oversized bodies
// are 413, everything else is a client parse error.
func clipError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		http.Error(w, fmt.Sprintf("body exceeds %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !s.admit(w, r) {
		return
	}
	clip, err := s.readClip(w, r)
	if err != nil {
		clipError(w, err)
		return
	}
	ctx, cancel := resilience.WithBudget(r.Context(), s.opts.DeadlineBudget)
	defer cancel()
	res := s.cascade(ctx, []scoreItem{{clip: clip, span: trace.FromContext(ctx)}})[0]
	if res.err != nil {
		s.cascadeError(w, res.err)
		return
	}
	writeJSON(w, http.StatusOK, res.resp)
}

// cascadeError maps a cascade failure (no fallback available, or the
// fallback itself failed) to its HTTP status.
func (s *Server) cascadeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, resilience.ErrOpen):
		if ra := s.breaker.RetryAfter(); ra > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int(ra/time.Second)+1))
		}
		http.Error(w, "primary detector unavailable (circuit open), no fallback", http.StatusServiceUnavailable)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		http.Error(w, fmt.Sprintf("scoring exceeded request deadline: %v", err), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// scoreItem is one clip on the degradation ladder with the span of the
// request that owns it (nil when tracing is off).
type scoreItem struct {
	clip layout.Clip
	span *trace.Span
}

// scoreResult is one item's outcome. A degraded response is a success;
// err means nothing could answer.
type scoreResult struct {
	resp ScoreResponse
	err  error
}

// cascade is the one degradation ladder: the items share one pass
// through the primary behind the breaker and ctx's budget, and when that
// pass fails (or the breaker is open) each is re-scored by the fallback.
// One primary failure degrades every item, because they shared the
// failed pass, but never 5xxes them while a fallback exists. /score
// calls it with one item under the request's budgeted context; the
// micro-batcher's flush calls it with a batch under a budget detached
// from any one request. Spans ("primary", "fallback") hang off ctx; the
// "breaker-open" and "degrade" events and the degraded flag that makes
// the tail sampler keep a trace land on each item's own request span.
func (s *Server) cascade(ctx context.Context, items []scoreItem) []scoreResult {
	out := make([]scoreResult, len(items))
	verdict := func(i int, det core.Detector, stage string, score float64, reason string) {
		thr := det.Threshold()
		s.quality.Observe(qualitymon.Event{
			Detector: det.Name(), Stage: stage,
			Score: score, Threshold: thr,
			Clip: items[i].clip, HasClip: true,
		})
		out[i].resp = ScoreResponse{
			Detector: det.Name(), Score: score,
			Threshold: thr, Hotspot: score >= thr,
			Degraded: reason != "", DegradedReason: reason,
		}
	}
	prim := *s.primary.Load()
	var primaryErr error
	var reason string
	if s.breaker.Allow() {
		var scores []float64
		pctx, psp := trace.Start(ctx, "primary", trace.A("detector", prim.Name()))
		scores, primaryErr = s.scorePrimary(pctx, prim, items)
		psp.SetError(primaryErr)
		psp.End()
		s.breaker.Record(primaryErr)
		s.reportOutcome(primaryErr)
		if primaryErr == nil {
			for i := range items {
				verdict(i, prim, "primary", scores[i], "")
			}
			return out
		}
		s.primaryErrs.Inc()
		reason = degradedReason(primaryErr)
	} else {
		primaryErr = resilience.ErrOpen
		reason = "breaker-open"
		for _, it := range items {
			it.span.AddEvent("breaker-open")
		}
	}
	if s.fallback == nil {
		for i := range out {
			out[i].err = primaryErr
		}
		return out
	}
	for i, it := range items {
		it.span.AddEvent("degrade", trace.A("reason", reason))
		it.span.SetFlag(trace.FlagDegraded)
		fctx, fsp := trace.Start(ctx, "fallback", trace.A("detector", s.fallback.Name()))
		score, err := core.ScoreClipCtx(fctx, s.fallback, it.clip)
		fsp.SetError(err)
		fsp.End()
		if err != nil {
			out[i].err = fmt.Errorf("fallback (after primary %s): %w", reason, err)
			continue
		}
		s.fallbacks.Inc()
		verdict(i, s.fallback, "fallback", score, reason)
	}
	return out
}

func degradedReason(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.As(err, new(*panicError)):
		return "panic"
	default:
		return "error"
	}
}

// panicError wraps a recovered primary-scoring panic so the cascade can
// treat it as a failure instead of unwinding the handler.
type panicError struct{ val any }

func (e *panicError) Error() string { return fmt.Sprintf("primary detector panic: %v", e.val) }

// reportOutcome feeds one primary-scoring outcome into the model
// registry's probation window (a no-op without a registry, and one
// atomic load outside probation) and into the quality monitor's SLO
// window.
func (s *Server) reportOutcome(primaryErr error) {
	if s.registry != nil {
		s.registry.ReportOutcome(primaryErr == nil)
	}
	s.quality.ReportServeOutcome(primaryErr == nil)
}

// qualityHook adapts the monitor for the registry's quality hook while
// keeping a disabled monitor a nil interface (so the registry skips the
// calls entirely instead of invoking no-op methods on a typed nil).
func qualityHook(m *qualitymon.Monitor) registry.QualityMonitor {
	if m == nil {
		return nil
	}
	return m
}

// scorePrimary runs prim (the primary detector the caller loaded) over
// the items under ctx's deadline, converting panics to errors. One item
// scores through the per-clip path, which is what hangs the
// raster/features/inference spans under /score's "primary" span; more
// take the vectorized pass. The scoring goroutine cannot be killed on
// timeout — it finishes in the background while the items degrade; the
// breaker stops sending traffic to a persistently slow primary.
func (s *Server) scorePrimary(ctx context.Context, prim core.Detector, items []scoreItem) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	type outcome struct {
		scores []float64
		err    error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				s.panics.Inc()
				ch <- outcome{nil, &panicError{val: p}}
			}
		}()
		if err := faultinject.Hit(PrimarySite); err != nil {
			ch <- outcome{nil, err}
			return
		}
		if len(items) == 1 {
			score, err := core.ScoreClipCtx(ctx, prim, items[0].clip)
			ch <- outcome{[]float64{score}, err}
			return
		}
		clips := make([]layout.Clip, len(items))
		for i, it := range items {
			clips[i] = it.clip
		}
		scores, err := core.ScoreClipsCtx(ctx, prim, clips)
		ch <- outcome{scores, err}
	}()
	select {
	case out := <-ch:
		return out.scores, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.sim == nil {
		http.Error(w, "verification disabled", http.StatusNotImplemented)
		return
	}
	if !s.admit(w, r) {
		return
	}
	clip, err := s.readClip(w, r)
	if err != nil {
		clipError(w, err)
		return
	}
	ctx, cancel := resilience.WithBudget(r.Context(), s.opts.DeadlineBudget)
	defer cancel()
	res, err := s.sim.SimulateCtx(ctx, clip)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	out := VerifyResponse{Hotspot: res.Hotspot, PVBandArea: res.PVBandArea}
	for _, d := range res.Defects {
		out.Defects = append(out.Defects, DefectJSON{
			Type: d.Type.String(), Corner: d.Corner, X: d.At.X, Y: d.At.Y,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past the header are unrecoverable mid-response;
	// the client sees a truncated body.
	_ = json.NewEncoder(w).Encode(v)
}
