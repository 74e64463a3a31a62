// Validated hot model reload: the admin surface over the model
// registry.
//
//	POST /admin/reload   {"path":"..."} -> load, gate, swap (200) or
//	                     422 when the validation gate rejects the
//	                     candidate, 500 when it cannot be loaded
//	POST /admin/rollback -> restore the previous generation (409 when
//	                     there is none)
//	GET  /admin/model    -> live generation, source, detector, probation
//
// The endpoints exist only when Options.Reload is set; everything they
// do is also reachable programmatically via Server.Registry().
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"github.com/golitho/hsd/internal/registry"
)

// ReloadOptions enables and configures validated hot model reload.
type ReloadOptions struct {
	// Config is the model registry's: Loader is required; Golden, the two
	// regression bounds, the probation window and Logf are the caller's.
	// OnSwap, Quality and Metrics are the server's own and overwritten.
	registry.Config
	// DefaultPath is reloaded when POST /admin/reload names no path —
	// typically the watched model file.
	DefaultPath string
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

// reloadRequest is the POST /admin/reload body.
type reloadRequest struct {
	Path string `json:"path"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req reloadRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<16))
	if err != nil {
		clipError(w, err)
		return
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, fmt.Sprintf("parse body: %v", err), http.StatusBadRequest)
			return
		}
	}
	if req.Path == "" {
		req.Path = r.URL.Query().Get("path")
	}
	if req.Path == "" {
		req.Path = s.opts.Reload.DefaultPath
	}
	if req.Path == "" {
		http.Error(w, "no model path: set {\"path\":...} or configure a default", http.StatusBadRequest)
		return
	}
	gen, verdict, err := s.registry.Reload(r.Context(), req.Path)
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
	if !s.registry.Rollback("operator request") {
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
