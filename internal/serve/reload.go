// Validated hot model reload: the admin surface over the model
// registry.
//
//	POST /admin/reload   -> load ReloadOptions.Path, gate, swap (200);
//	                     422 when the validation gate rejects the
//	                     candidate, 500 when it cannot be loaded, 400
//	                     when the request has a body or a query (it
//	                     cannot name the file) or no Path is configured
//	POST /admin/rollback -> restore the generation the last swap
//	                     replaced (409 when there is none)
//	GET  /admin/model    -> live generation, source, detector, threshold
//	                     and load time
//
// The endpoints exist only when Options.Reload is set. A reload is
// the one way a new model reaches the server, and the file it loads is
// the one the server was configured with: no request chooses what is
// opened.
package serve

import (
	"errors"
	"io"
	"math"
	"net/http"
	"time"

	"github.com/golitho/hsd/internal/registry"
)

// ReloadOptions enables and configures validated hot model reload.
type ReloadOptions struct {
	// Config is the model registry's: Loader is required; Golden and
	// Logf are the caller's. OnSwap and Metrics are the server's own and
	// overwritten: OnSwap installs a new serving generation, with its own
	// cache and outcome window, and resets the quality monitor.
	registry.Config
	// Path is the model file POST /admin/reload loads, the one file the
	// server ever reloads (hsdserve's -model). Empty, a reload answers
	// 400.
	Path string
	// ProbationRequests is how many of a swapped-in generation's first
	// primary outcomes are its probation (0 disables it). A restored or
	// boot generation is not judged.
	ProbationRequests int
	// ProbationMaxFailures is how many failures among them are tolerated:
	// one more, or a breaker trip among them, rolls the generation back.
	ProbationMaxFailures int
}

// VerdictJSON is the gate verdict in admin replies. Rates are omitted
// when the gate had no golden samples of that class (NaN internally).
type VerdictJSON struct {
	OK         bool     `json:"ok"`
	Reason     string   `json:"reason,omitempty"`
	LiveRecall *float64 `json:"liveRecall,omitempty"`
	CandRecall *float64 `json:"candRecall,omitempty"`
	LiveFAR    *float64 `json:"liveFalseAlarmRate,omitempty"`
	CandFAR    *float64 `json:"candFalseAlarmRate,omitempty"`
}

func finitePtr(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

func verdictJSON(v registry.Verdict) VerdictJSON {
	return VerdictJSON{
		OK: v.OK, Reason: v.Reason,
		LiveRecall: finitePtr(v.LiveRecall), CandRecall: finitePtr(v.CandRecall),
		LiveFAR: finitePtr(v.LiveFAR), CandFAR: finitePtr(v.CandFAR),
	}
}

// ModelResponse is the GET /admin/model reply (and the success body of
// the admin mutations, with the verdict attached on reload).
type ModelResponse struct {
	Generation int64        `json:"generation"`
	Source     string       `json:"source"`
	Detector   string       `json:"detector"`
	Threshold  float64      `json:"threshold"`
	LoadedAt   time.Time    `json:"loadedAt"`
	Verdict    *VerdictJSON `json:"verdict,omitempty"`
}

func modelResponse(gen *registry.Generation) ModelResponse {
	return ModelResponse{
		Generation: gen.ID,
		Source:     gen.Source,
		Detector:   gen.Detector.Name(),
		Threshold:  gen.Detector.Threshold(),
		LoadedAt:   gen.LoadedAt,
	}
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	// Refused before the loader runs: a request cannot name a file.
	var b [1]byte
	if n, _ := io.ReadFull(r.Body, b[:]); n > 0 || r.URL.RawQuery != "" {
		http.Error(w, "reload takes no body and no query: it loads the configured model file", http.StatusBadRequest)
		return
	}
	if s.opts.Reload.Path == "" {
		http.Error(w, "no model path: the server was started without a model file to reload", http.StatusBadRequest)
		return
	}
	gen, verdict, err := s.registry.Reload(r.Context(), s.opts.Reload.Path)
	vj := verdictJSON(verdict)
	switch {
	case err == nil:
		resp := modelResponse(gen)
		resp.Verdict = &vj
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(err, registry.ErrRejected):
		writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
			"error": err.Error(), "verdict": vj,
		})
	default:
		writeJSON(w, http.StatusInternalServerError, map[string]any{
			"error": err.Error(),
		})
	}
}

func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !s.registry.Rollback(s.registry.Live(), "operator request") {
		http.Error(w, "no previous generation to roll back to", http.StatusConflict)
		return
	}
	writeJSON(w, http.StatusOK, modelResponse(s.registry.Live()))
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, modelResponse(s.registry.Live()))
}
