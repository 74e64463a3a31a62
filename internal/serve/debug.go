// Debug surfaces: retained-trace inspection, the quality snapshot and
// profiling. Each lives on exactly one mux.
//
// On the serving mux (Handler), uninstrumented:
//
// GET /debug/traces        -> JSON list of retained traces (?limit=N),
//                             or one full trace with ?id=<hex trace id>;
//                             mounted when the server has a tracer
// GET /debug/traces/chrome -> the same traces in Chrome trace_event
//                             format, loadable in about:tracing and
//                             https://ui.perfetto.dev (?limit=N, ?id=)
// GET /debug/quality       -> the quality monitor's snapshot; mounted
//                             when the server has a monitor
//
// On DebugMux only: net/http/pprof under /debug/pprof/. It is meant for
// a separate, non-public listener (hsdserve -debug-addr), since a CPU
// profile or heap dump can stall the process.

package serve

import (
	"net/http"
	"net/http/pprof"
	"strconv"

	"github.com/golitho/hsd/internal/trace"
)

// tracesResponse is the GET /debug/traces list reply.
type tracesResponse struct {
	// Kept and SampledOut are cumulative tail-sampling counters.
	Kept       int64 `json:"kept"`
	SampledOut int64 `json:"sampledOut"`
	// Traces are the retained traces, most recent first.
	Traces []*trace.TraceRecord `json:"traces"`
}

// debugTraces resolves the traces selected by the request query:
// ?id=<hex> for a single trace, else the most recent ?limit= (default
// 64, 0 = all). It writes the error response itself when returning nil
// with ok=false.
func (s *Server) debugTraces(w http.ResponseWriter, r *http.Request) ([]*trace.TraceRecord, bool) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return nil, false
	}
	if s.opts.Tracer == nil {
		http.Error(w, "tracing disabled", http.StatusNotFound)
		return nil, false
	}
	if idStr := r.URL.Query().Get("id"); idStr != "" {
		id, err := trace.ParseTraceID(idStr)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return nil, false
		}
		rec := s.opts.Tracer.Get(id)
		if rec == nil {
			http.Error(w, "trace not found (evicted or sampled out)", http.StatusNotFound)
			return nil, false
		}
		return []*trace.TraceRecord{rec}, true
	}
	limit := 64
	if ls := r.URL.Query().Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			http.Error(w, "limit must be a non-negative integer", http.StatusBadRequest)
			return nil, false
		}
		limit = n
	}
	return s.opts.Tracer.Traces(limit), true
}

// handleTraces is GET /debug/traces.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	traces, ok := s.debugTraces(w, r)
	if !ok {
		return
	}
	st := s.opts.Tracer.Stats()
	writeJSON(w, http.StatusOK, tracesResponse{
		Kept:       st.Kept,
		SampledOut: st.SampledOut,
		Traces:     traces,
	})
}

// handleTracesChrome is GET /debug/traces/chrome: the selected traces
// as a Chrome trace_event JSON array.
func (s *Server) handleTracesChrome(w http.ResponseWriter, r *http.Request) {
	traces, ok := s.debugTraces(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="hsd-trace.json"`)
	_ = trace.WriteChrome(w, traces)
}

// DebugMux returns the handler for a private debug listener: pprof
// under /debug/pprof/, and nothing else. Profiling endpoints can stall
// the process (heap dumps, CPU profiles), so they are never mounted on
// the serving mux.
func (s *Server) DebugMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
