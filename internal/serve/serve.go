// Package serve exposes a trained hotspot detector as an HTTP service:
// physical-verification flows POST layout clips and receive JSON
// verdicts, optionally backed by lithography-simulation verification.
//
// Endpoints:
//
//	POST /score   body: GLT layout of one clip window -> {"score":..,"hotspot":..}
//	POST /batch   the same handler as /score, kept for existing clients
//	POST /verify  same body -> full oracle verdict with defects
//	GET  /healthz -> {"status":"ok","detector":"..."}  (liveness)
//	GET  /readyz  -> breaker state + fallback availability (readiness)
//	GET  /metrics -> Prometheus text exposition of serving telemetry
//
// Serving is a graceful-degradation cascade over the paper's
// shallow-to-deep detector spectrum. Its first rung is a score cache:
// a clip the live primary has already scored is answered with the
// stored score and runs nothing. The primary (deep, accurate,
// expensive) detector is guarded by a per-request deadline budget and its
// generation's circuit breaker; when it times out, errors, panics, or the
// breaker is open, the request is re-scored by the shallow fallback detector and
// answered with "degraded": true instead of an error. A token-bucket
// load shedder rejects excess traffic with 429 + Retry-After before any
// work is queued. Every stage is observable: hotspot_score_cache_*,
// hotspot_fallbacks_total, requests_shed_total, hotspot_breaker_state,
// and the per-endpoint request metrics.
//
// The service is safe for concurrent use. Requests are not independent:
// one request's primary score answers a later request for the same clip
// from the cache, which is bounded, belongs to the live model generation
// and is replaced with it. Scoring itself takes no lock: every miss
// scores on the one fitted primary (or fallback) detector, which
// core.Detector's contract makes safe to share, so concurrent requests
// run in parallel.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
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
	// Breaker tunes the circuit breaker each model generation gets over
	// its primary outcomes; the zero value gets the resilience defaults
	// (5 failures among the last 10 outcomes trip, 5s cool-down, 1
	// probe). The hotspot_breaker_state gauge reads the live
	// generation's at every scrape.
	Breaker resilience.BreakerConfig
	// ShedRate, when positive, enables token-bucket admission control
	// at this many requests per second (capacity max(ShedRate, 1)). Shed
	// requests get 429 with Retry-After before any parsing or scoring
	// work happens.
	ShedRate float64
	// Clock drives breaker and shedder timing (default the wall clock).
	Clock resilience.Clock
	// Metrics is the registry the server's series land in and GET
	// /metrics renders. A process that wants one page hands the same
	// registry to the tracer, the quality monitor and the data engine
	// when it builds them, then to the server; nil means a private
	// registry, reachable through Server.Metrics.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, enables request tracing: every request runs
	// under a root span whose children attribute time to pipeline stages,
	// retained under the tracer's tail-sampling policy and served by
	// GET /debug/traces. Built with Metrics above, its
	// hotspot_stage_seconds histograms land in /metrics.
	Tracer *trace.Tracer
	// Reload, when non-nil, puts the primary detector behind a versioned
	// model registry with validated hot reload: POST /admin/reload loads
	// the file at Reload.Path, gates it on the golden set against the
	// live model, and swaps atomically; the swapped-in generation's first
	// primary outcomes are its probation, and too many failures among
	// them, or a breaker trip, roll it back.
	Reload *ReloadOptions
	// Quality, when non-nil, enables model-quality monitoring: every
	// cascade answer is observed (stage "primary" or "fallback") for the
	// monitor's spot checks and low-confidence tap, primary outcomes feed
	// its SLO window, and GET /debug/quality serves its snapshot; its
	// gauges go where its own Options.Metrics says. With hot reload
	// enabled the server resets the monitor on every generation change.
	Quality *qualitymon.Monitor
}

// Server wires the detector cascade (and optionally the oracle) into an
// http.Handler.
type Server struct {
	// opts is the Options NewServer was given, defaults filled in: the
	// one home of the fallback, simulator, window geometry, registry,
	// tracer and quality monitor.
	opts Options
	// live is swapped atomically on validated hot reload and rollback;
	// every answer comes from one load, so detector name, threshold,
	// score, the cache a hit is answered from and the window an outcome
	// counts in always describe the same generation.
	live     atomic.Pointer[liveGen]
	registry *registry.Registry // nil when hot reload is disabled

	shed *resilience.Shedder // nil when shedding is disabled

	panics       *telemetry.Counter
	fallbacks    *telemetry.Counter
	shedTotal    *telemetry.Counter
	primaryErrs  *telemetry.Counter
	cacheHits    *telemetry.Counter
	cacheMisses  *telemetry.Counter
	cacheEvicted *telemetry.Counter
	clipsRefused *telemetry.Counter
}

// liveGen is what a request loads in one atomic step: the live
// generation's primary, its name, the score cache that belongs to it and
// its outcome window. A reload or rollback installs a new one, so a
// score is only ever answered from the cache of the model that computed
// it, and an outcome only ever counts against the model that produced
// it.
type liveGen struct {
	gen *registry.Generation // nil when hot reload is disabled
	det core.Detector
	// name is det.Name(), taken once: some detectors build it on every
	// call.
	name  string
	cache *scoreCache
	// breaker is the window over the generation's last primary outcomes.
	breaker *resilience.Breaker
	// quality is the quality monitor generation its SLO outcomes carry.
	quality uint64
	// probation is how many of its first primary outcomes are judged: 0
	// unless a reload swapped it in. judged and failed count them.
	probation      int64
	judged, failed atomic.Int64
}

// newLiveGen builds the serving generation of det (gen in the registry)
// with an empty cache and an empty window, and restarts the quality
// monitor's windows for it; onProbation judges its first outcomes.
func (s *Server) newLiveGen(det core.Detector, gen *registry.Generation, onProbation bool) *liveGen {
	g := &liveGen{
		gen: gen, det: det, name: det.Name(), cache: newScoreCache(scoreCacheRects),
		breaker: resilience.NewBreaker(s.opts.Breaker),
		quality: s.opts.Quality.Reset(),
	}
	if onProbation {
		g.probation = int64(s.opts.Reload.ProbationRequests)
	}
	return g
}

// judge counts one primary outcome against g's probation and returns
// why g must be rolled back: more than ro.ProbationMaxFailures of its
// first g.probation outcomes failed, or its breaker tripped among them;
// "" keeps g. The failure count's reason is returned to one outcome
// only, and a trip's to the outcome that tripped.
func (g *liveGen) judge(failed, tripped bool, ro *ReloadOptions) string {
	if g.probation == 0 || g.judged.Add(1) > g.probation {
		return ""
	}
	if failed && g.failed.Add(1) == int64(ro.ProbationMaxFailures)+1 {
		return fmt.Sprintf("%d failures on probation", ro.ProbationMaxFailures+1)
	}
	if tripped {
		return "breaker tripped on probation"
	}
	return ""
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
	if opts.Breaker.Clock == nil {
		opts.Breaker.Clock = opts.Clock
	}
	if opts.Metrics == nil {
		opts.Metrics = telemetry.NewRegistry()
	}
	reg := opts.Metrics
	reg.SetHelp("http_requests_total", "Requests by endpoint and status code.")
	reg.SetHelp("http_errors_total", "Responses with status >= 400 by endpoint.")
	reg.SetHelp("http_request_seconds", "Request latency by endpoint.")
	reg.SetHelp("http_inflight_requests", "Requests currently being served, counted before admission control so shed traffic is visible.")
	reg.SetHelp("http_panics_total", "Panics recovered during request handling.")
	reg.SetHelp("hotspot_fallbacks_total", "Requests answered by the fallback detector (degraded verdicts).")
	reg.SetHelp("requests_shed_total", "Requests rejected 429 by the admission token bucket.")
	reg.SetHelp("hotspot_breaker_state", "Primary-detector circuit breaker state: 0=closed, 1=half-open, 2=open.")
	reg.SetHelp("hotspot_primary_failures_total", "Primary detector failures (errors, panics, deadline overruns).")
	reg.SetHelp("hotspot_score_cache_hits_total", "Clips answered from the live generation's score cache, with no detector run.")
	reg.SetHelp("hotspot_score_cache_misses_total", "Clips not in the live generation's score cache, sent down the degradation ladder.")
	reg.SetHelp("hotspot_score_cache_evictions_total", "Score cache entries evicted to keep the cache within its rectangle budget.")
	reg.SetHelp("hotspot_clips_refused_total", "Clips refused 413 for holding more than layout.MaxClipShapes shapes, before any detector or the oracle ran.")
	telemetry.RegisterRuntimeMetrics(reg)

	s := &Server{
		opts:         opts,
		panics:       reg.Counter("http_panics_total"),
		fallbacks:    reg.Counter("hotspot_fallbacks_total"),
		shedTotal:    reg.Counter("requests_shed_total"),
		primaryErrs:  reg.Counter("hotspot_primary_failures_total"),
		cacheHits:    reg.Counter("hotspot_score_cache_hits_total"),
		cacheMisses:  reg.Counter("hotspot_score_cache_misses_total"),
		cacheEvicted: reg.Counter("hotspot_score_cache_evictions_total"),
		clipsRefused: reg.Counter("hotspot_clips_refused_total"),
	}
	stateGauge := reg.Gauge("hotspot_breaker_state")
	reg.OnCollect(func() { stateGauge.Set(float64(s.live.Load().breaker.State())) })
	if opts.ShedRate > 0 {
		s.shed = resilience.NewShedder(resilience.ShedderConfig{
			Rate: opts.ShedRate, Clock: opts.Clock,
		})
	}
	if opts.Reload == nil {
		s.live.Store(s.newLiveGen(opts.Primary, nil, false))
		return s, nil
	}
	rcfg := opts.Reload.Config
	if rcfg.Loader == nil {
		return nil, fmt.Errorf("serve: Reload options need a Loader")
	}
	rcfg.OnSwap = func(gen *registry.Generation) {
		// Only a reload moves the ID up; a rollback restores an older one.
		s.live.Store(s.newLiveGen(gen.Detector, gen, gen.ID > s.live.Load().gen.ID))
	}
	rcfg.Metrics = reg
	s.registry = registry.New(opts.Primary, rcfg)
	s.live.Store(s.newLiveGen(opts.Primary, s.registry.Live(), false))
	return s, nil
}

// Metrics returns the server's telemetry registry (Options.Metrics, or
// the private one), for reading the serving metrics in tests and
// benchmarks.
func (s *Server) Metrics() *telemetry.Registry { return s.opts.Metrics }

// Handler returns the routed HTTP handler with instrumentation and panic
// recovery applied to every endpoint.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealth))
	mux.HandleFunc("/readyz", s.instrument("/readyz", s.handleReady))
	mux.HandleFunc("/score", s.instrument("/score", s.handleScore))
	// /batch is /score under its own request series, kept for the
	// clients that post to it.
	mux.HandleFunc("/batch", s.instrument("/batch", s.handleScore))
	mux.HandleFunc("/verify", s.instrument("/verify", s.handleVerify))
	mux.HandleFunc("/metrics", s.instrument("/metrics", s.handleMetrics))
	if s.registry != nil {
		mux.HandleFunc("/admin/reload", s.instrument("/admin/reload", s.handleReload))
		mux.HandleFunc("/admin/rollback", s.instrument("/admin/rollback", s.handleRollback))
		mux.HandleFunc("/admin/model", s.instrument("/admin/model", s.handleModel))
	}
	if s.opts.Tracer != nil {
		// Uninstrumented on purpose: trace inspection must not perturb
		// the request metrics or generate traces of its own.
		mux.HandleFunc("/debug/traces", s.handleTraces)
		mux.HandleFunc("/debug/traces/chrome", s.handleTracesChrome)
	}
	if s.opts.Quality != nil {
		// Uninstrumented for the same reason as /debug/traces.
		mux.HandleFunc("/debug/quality", s.handleQuality)
	}
	return mux
}

// handleQuality serves the quality monitor's full snapshot: spot-check
// totals and confusion, SLO burn rates, and the alert state. Taking the
// snapshot also advances the alert state machine.
func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, s.opts.Quality.Snapshot())
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
	// A code's series is resolved by the first request answered with it,
	// so none shows before its code is served; racing first requests get
	// the same counter from the registry.
	var codes sync.Map // status code -> *telemetry.Counter
	requests := func(code int) *telemetry.Counter {
		if c, ok := codes.Load(code); ok {
			return c.(*telemetry.Counter)
		}
		c := s.opts.Metrics.Counter("http_requests_total",
			telemetry.L("endpoint", endpoint), telemetry.L("code", strconv.Itoa(code)))
		codes.Store(code, c)
		return c
	}
	spanName := "http " + endpoint
	errCount := s.opts.Metrics.Counter("http_errors_total", telemetry.L("endpoint", endpoint))
	latency := s.opts.Metrics.Histogram("http_request_seconds", nil, telemetry.L("endpoint", endpoint))
	// Incremented before admission control runs (admit happens inside
	// h), so a saturated server's shed traffic still registers as load.
	inflight := s.opts.Metrics.Gauge("http_inflight_requests")

	return func(w http.ResponseWriter, r *http.Request) {
		inflight.Inc()
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		ctx, root := trace.Start(trace.WithTracer(r.Context(), s.opts.Tracer),
			spanName, trace.A("method", r.Method))
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
		"detector": s.live.Load().name,
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
	gen := s.live.Load()
	state := gen.breaker.State()
	out := ReadyResponse{
		Breaker:  state.String(),
		Primary:  gen.name,
		Shedding: s.shed != nil,
	}
	if s.opts.Fallback != nil {
		out.Fallback = s.opts.Fallback.Name()
	}
	if s.opts.DeadlineBudget > 0 {
		out.DeadlineBudget = s.opts.DeadlineBudget.String()
	}
	status := http.StatusOK
	switch {
	case state != resilience.StateOpen:
		out.Status = "ready"
	case s.opts.Fallback != nil:
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
	_ = s.opts.Metrics.WritePrometheus(w)
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
// truncated tail. The clip is cut from the parsed shapes directly: a
// request's layout is clipped once, so an index would cost more than
// it saves. A clip over layout.MaxClipShapes, which CutClip refuses,
// is counted here, before any detector or the oracle sees it.
func (s *Server) readClip(w http.ResponseWriter, r *http.Request) (layout.Clip, error) {
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
	if err != nil {
		return layout.Clip{}, fmt.Errorf("read body: %w", err)
	}
	shapes, err := layout.ReadShapes(body)
	if err != nil {
		return layout.Clip{}, fmt.Errorf("parse layout: %w", err)
	}
	var b geom.Rect
	for _, sh := range shapes {
		b = b.Union(sh)
	}
	if b.Empty() {
		return layout.Clip{}, fmt.Errorf("layout has no shapes")
	}
	clip, err := layout.CutClip(shapes, b.Center(), s.opts.ClipNM, s.opts.CoreFrac)
	if errors.Is(err, layout.ErrTooManyShapes) {
		s.clipsRefused.Inc()
	}
	return clip, err
}

// readBody reads r to EOF into one buffer with room for size bytes (the
// request's Content-Length, -1 when unknown), growing it only when r
// holds more.
func readBody(r io.Reader, size int64) ([]byte, error) {
	// The spare byte lets the read that meets EOF land without growing.
	buf := make([]byte, 0, min(max(size, 0), maxBodyBytes)+1)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// clipError maps a readClip failure to its HTTP status: oversized bodies
// and clips are 413, everything else is a client parse error.
func clipError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		http.Error(w, fmt.Sprintf("body exceeds %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
		return
	}
	if errors.Is(err, layout.ErrTooManyShapes) {
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
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
	gen := s.live.Load()
	resp, err := s.cascade(r.Context(), gen, clip)
	if err != nil {
		cascadeError(w, gen, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// cascadeError maps a cascade failure of gen (no fallback available,
// or the fallback itself failed) to its HTTP status; an open breaker's
// Retry-After is gen's.
func cascadeError(w http.ResponseWriter, gen *liveGen, err error) {
	switch {
	case errors.Is(err, resilience.ErrOpen):
		if ra := gen.breaker.RetryAfter(); ra > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int(ra/time.Second)+1))
		}
		http.Error(w, "primary detector unavailable (circuit open), no fallback", http.StatusServiceUnavailable)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		http.Error(w, fmt.Sprintf("scoring exceeded request deadline: %v", err), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// cascade answers one clip from gen, the live generation the request
// loaded: first from its score cache, then down the degradation ladder
// under the request's deadline budget. A hit gets the primary's verdict
// with the score the primary stored, and since it runs nothing it
// touches nothing that counts runs: no budget, no goroutine, no breaker
// call, no outcome in any window, no serve.primary fault site. It only
// feeds the quality monitor and adds a "score-cache-hit" event to the
// request span. A miss that the primary answered within the deadline is
// stored; a fallback score never is. A degraded response is a success;
// an error means nothing could answer.
func (s *Server) cascade(ctx context.Context, gen *liveGen, clip layout.Clip) (ScoreResponse, error) {
	key := keyOf(clip)
	if score, ok := gen.cache.get(key, clip); ok {
		s.cacheHits.Inc()
		trace.FromContext(ctx).AddEvent("score-cache-hit")
		return s.answer(gen.det, gen.name, "primary", clip, score, ""), nil
	}
	s.cacheMisses.Inc()
	ctx, cancel := resilience.WithBudget(ctx, s.opts.DeadlineBudget)
	defer cancel()
	resp, err := s.ladder(ctx, gen, clip)
	// Only the primary answers undegraded.
	if err == nil && !resp.Degraded && ctx.Err() == nil {
		s.cacheEvicted.Add(float64(gen.cache.put(key, clip, resp.Score)))
	}
	return resp, err
}

// answer is the verdict det, named name, gives a clip it scored (or
// stored) as score, fed to the quality monitor under stage; a non-empty
// reason marks it degraded.
func (s *Server) answer(det core.Detector, name, stage string, clip layout.Clip, score float64, reason string) ScoreResponse {
	thr := det.Threshold()
	s.opts.Quality.Observe(qualitymon.Event{Stage: stage, Score: score, Threshold: thr, Clip: clip})
	return ScoreResponse{
		Detector: name, Score: score,
		Threshold: thr, Hotspot: score >= thr,
		Degraded: reason != "", DegradedReason: reason,
	}
}

// ladder is the degradation ladder: the clip is scored by gen's primary
// behind gen's breaker and ctx's budget, and when that fails (or the
// breaker is open) it is re-scored by the fallback, never 5xxed while a
// fallback exists. Spans ("primary", "fallback") hang off ctx; the
// "breaker-open" and "degrade" events and the degraded flag that makes
// the tail sampler keep a trace land on the request span.
func (s *Server) ladder(ctx context.Context, gen *liveGen, clip layout.Clip) (ScoreResponse, error) {
	span := trace.FromContext(ctx)
	var primaryErr error
	var reason string
	if gen.breaker.Allow() {
		pctx, psp := trace.Start(ctx, "primary", trace.A("detector", gen.name))
		var score float64
		score, primaryErr = s.scorePrimary(pctx, gen.det, clip)
		psp.SetError(primaryErr)
		psp.End()
		s.reportOutcome(gen, primaryErr)
		if primaryErr == nil {
			return s.answer(gen.det, gen.name, "primary", clip, score, ""), nil
		}
		s.primaryErrs.Inc()
		reason = degradedReason(primaryErr)
	} else {
		primaryErr = resilience.ErrOpen
		reason = "breaker-open"
		span.AddEvent("breaker-open")
	}
	fallback := s.opts.Fallback
	if fallback == nil {
		return ScoreResponse{}, primaryErr
	}
	span.AddEvent("degrade", trace.A("reason", reason))
	span.SetFlag(trace.FlagDegraded)
	fctx, fsp := trace.Start(ctx, "fallback", trace.A("detector", fallback.Name()))
	score, err := fallback.Score(fctx, clip)
	fsp.SetError(err)
	fsp.End()
	if err != nil {
		return ScoreResponse{}, fmt.Errorf("fallback (after primary %s): %w", reason, err)
	}
	s.fallbacks.Inc()
	return s.answer(fallback, fallback.Name(), "fallback", clip, score, reason), nil
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

// reportOutcome feeds one primary-scoring outcome of gen into gen's
// breaker and the quality monitor's SLO window under gen's stamp, and
// judges gen's probation with it. The request whose outcome fails gen's
// probation is the one that asks the registry for the rollback, and the
// only one that takes its lock.
func (s *Server) reportOutcome(gen *liveGen, primaryErr error) {
	tripped := gen.breaker.Record(primaryErr)
	s.opts.Quality.ReportServeOutcome(gen.quality, primaryErr == nil)
	if reason := gen.judge(primaryErr != nil, tripped, s.opts.Reload); reason != "" {
		s.registry.Rollback(gen.gen, reason)
	}
}

// scorePrimary runs prim (the primary detector the caller loaded) on
// the clip under ctx's deadline, converting panics to errors. It scores
// through the per-clip path, which hangs the raster/features/inference
// spans under the "primary" span. The scoring goroutine cannot be
// killed on timeout — it finishes in the background while the request
// degrades; the generation's breaker stops sending traffic to a primary
// that overruns in FailureThreshold of its last 2·FailureThreshold
// outcomes.
func (s *Server) scorePrimary(ctx context.Context, prim core.Detector, clip layout.Clip) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	type outcome struct {
		score float64
		err   error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				s.panics.Inc()
				ch <- outcome{0, &panicError{val: p}}
			}
		}()
		if err := faultinject.Hit(PrimarySite); err != nil {
			ch <- outcome{0, err}
			return
		}
		score, err := prim.Score(ctx, clip)
		ch <- outcome{score, err}
	}()
	select {
	case out := <-ch:
		return out.score, out.err
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.opts.Sim == nil {
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
	res, err := s.opts.Sim.SimulateCtx(ctx, clip)
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

// writeJSON answers status with v as one line of JSON. v is encoded
// before the status is written, so a value JSON cannot hold (a
// non-finite score or threshold) is answered 500 with the encoder's
// error, not status with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Past the status a failed write has no one to answer: the client
	// has gone.
	_, _ = w.Write(buf.Bytes())
}

// jsonBufs holds writeJSON's buffers, so an answer allocates none.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}
