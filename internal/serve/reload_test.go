package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/registry"
	"github.com/golitho/hsd/internal/telemetry"
)

// namedDet is a reload-test detector with a fixed score: the gate and
// the serving path both see exactly what the test configured.
type namedDet struct {
	name  string
	score float64
	thr   float64
	err   error
}

func (d namedDet) Name() string                 { return d.name }
func (d namedDet) Fit([]core.LabeledClip) error { return nil }
func (d namedDet) Threshold() float64           { return d.thr }
func (d namedDet) Score(layout.Clip) (float64, error) {
	return d.score, d.err
}

// reloadServer builds a server whose Loader returns cand for any path.
func reloadServer(t *testing.T, cand core.Detector, ro ReloadOptions) (*Server, *httptest.Server) {
	t.Helper()
	ro.Loader = func(path string) (core.Detector, error) {
		if cand == nil {
			return nil, errors.New("no such model")
		}
		return cand, nil
	}
	s, err := NewServer(Options{Primary: thresholdDetector{}, Reload: &ro})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postReload(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/admin/reload", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func scoreOnce(t *testing.T, ts *httptest.Server) (int, ScoreResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/score", "application/octet-stream",
		gltBody(t, geom.R(0, 0, 200, 200)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr ScoreResponse
	_ = json.NewDecoder(resp.Body).Decode(&sr)
	return resp.StatusCode, sr
}

func reloadCounter(s *Server, outcome string) float64 {
	return s.Metrics().Counter("hotspot_reloads_total", telemetry.L("outcome", outcome)).Value()
}

func TestAdminReloadSwapsPrimary(t *testing.T) {
	cand := namedDet{name: "cnn-v2", score: 0.9, thr: 0.7}
	s, ts := reloadServer(t, cand, ReloadOptions{})

	resp := postReload(t, ts, `{"path":"model-v2.hsdnn"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status = %d", resp.StatusCode)
	}
	var mr ModelResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.Generation != 2 || mr.Detector != "cnn-v2" || mr.Source != "model-v2.hsdnn" {
		t.Fatalf("reload reply = %+v", mr)
	}
	if mr.Verdict == nil || !mr.Verdict.OK {
		t.Fatalf("reload verdict = %+v, want OK", mr.Verdict)
	}

	// The serving path now runs the new generation end to end.
	code, sr := scoreOnce(t, ts)
	if code != http.StatusOK || sr.Detector != "cnn-v2" || sr.Threshold != 0.7 || !sr.Hotspot {
		t.Fatalf("post-swap score = %d %+v, want cnn-v2 hotspot at thr 0.7", code, sr)
	}
	if got := reloadCounter(s, "swapped"); got != 1 {
		t.Fatalf("swapped counter = %v, want 1", got)
	}
	if got := s.Metrics().Gauge("hotspot_model_generation").Value(); got != 2 {
		t.Fatalf("generation gauge = %v, want 2", got)
	}
}

func TestAdminReloadRejectedKeepsLiveModel(t *testing.T) {
	golden := []core.LabeledClip{{Hotspot: true}, {Hotspot: false}}
	cand := namedDet{name: "nan-model", score: math.NaN(), thr: 0.5}
	s, ts := reloadServer(t, cand, ReloadOptions{Config: registry.Config{Golden: golden}})

	resp := postReload(t, ts, `{"path":"broken.hsdnn"}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("reload status = %d, want 422", resp.StatusCode)
	}
	var body struct {
		Error   string      `json:"error"`
		Verdict VerdictJSON `json:"verdict"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Verdict.OK || body.Error == "" {
		t.Fatalf("rejection body = %+v", body)
	}
	code, sr := scoreOnce(t, ts)
	if code != http.StatusOK || sr.Detector != "density-threshold" {
		t.Fatalf("score after rejection = %d %+v, want the boot detector", code, sr)
	}
	if got := reloadCounter(s, "rejected"); got != 1 {
		t.Fatalf("rejected counter = %v, want 1", got)
	}
}

func TestAdminReloadLoadFailure(t *testing.T) {
	s, ts := reloadServer(t, nil, ReloadOptions{})
	resp := postReload(t, ts, `{"path":"missing.hsdnn"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("reload status = %d, want 500", resp.StatusCode)
	}
	if got := reloadCounter(s, "load_failed"); got != 1 {
		t.Fatalf("load_failed counter = %v, want 1", got)
	}
}

func TestAdminReloadNeedsPath(t *testing.T) {
	_, ts := reloadServer(t, namedDet{name: "x"}, ReloadOptions{})
	if resp := postReload(t, ts, ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("pathless reload status = %d, want 400", resp.StatusCode)
	}
}

func TestAdminReloadDefaultPath(t *testing.T) {
	cand := namedDet{name: "watched", score: 0.9, thr: 0.5}
	_, ts := reloadServer(t, cand, ReloadOptions{DefaultPath: "watched.hsdnn"})
	resp := postReload(t, ts, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default-path reload status = %d", resp.StatusCode)
	}
	var mr ModelResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.Source != "watched.hsdnn" {
		t.Fatalf("source = %q, want the configured default path", mr.Source)
	}
}

func TestAdminModelAndRollback(t *testing.T) {
	cand := namedDet{name: "cnn-v2", score: 0.9, thr: 0.5}
	_, ts := reloadServer(t, cand, ReloadOptions{})

	get := func() ModelResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/admin/model")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var mr ModelResponse
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			t.Fatal(err)
		}
		return mr
	}
	if mr := get(); mr.Generation != 1 || mr.Source != "boot" {
		t.Fatalf("boot model = %+v", mr)
	}
	postReload(t, ts, `{"path":"m"}`)
	if mr := get(); mr.Generation != 2 {
		t.Fatalf("post-reload model = %+v", mr)
	}

	resp, err := http.Post(ts.URL+"/admin/rollback", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback status = %d", resp.StatusCode)
	}
	if mr := get(); mr.Generation != 1 {
		t.Fatalf("post-rollback model = %+v, want generation 1", mr)
	}
	resp2, err := http.Post(ts.URL+"/admin/rollback", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("second rollback status = %d, want 409", resp2.StatusCode)
	}
}

// TestProbationRollbackRestoresServing is the end-to-end acceptance
// path: a candidate passes the (empty) gate, starts erroring in
// production, exceeds the probation failure budget, and the registry
// rolls the serving path back to the previous generation.
func TestProbationRollbackRestoresServing(t *testing.T) {
	bad := namedDet{name: "flaky", thr: 0.5, err: errors.New("tensor shape mismatch")}
	s, ts := reloadServer(t, bad, ReloadOptions{Config: registry.Config{
		ProbationRequests:    10,
		ProbationMaxFailures: 1,
	}})
	if resp := postReload(t, ts, `{"path":"flaky.hsdnn"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status = %d", resp.StatusCode)
	}

	// Two primary failures exceed the budget of 1 and trigger rollback.
	// No fallback is configured, so these requests surface as 500s.
	for i := 0; i < 2; i++ {
		if code, _ := scoreOnce(t, ts); code != http.StatusInternalServerError {
			t.Fatalf("flaky score %d status = %d, want 500", i, code)
		}
	}
	if got := s.Registry().Live().ID; got != 1 {
		t.Fatalf("live generation = %d, want 1 after automatic rollback", got)
	}
	if got := reloadCounter(s, "rolled_back"); got != 1 {
		t.Fatalf("rolled_back counter = %v, want 1", got)
	}
	if got := s.Metrics().Gauge("hotspot_model_generation").Value(); got != 1 {
		t.Fatalf("generation gauge = %v, want 1 after rollback", got)
	}
	// The restored generation serves again — same request now succeeds.
	code, sr := scoreOnce(t, ts)
	if code != http.StatusOK || sr.Detector != "density-threshold" || sr.Degraded {
		t.Fatalf("post-rollback score = %d %+v, want healthy boot detector", code, sr)
	}
}

// TestReloadMidTrafficIsConsistent hammers /score during a swap and
// checks every response is internally consistent: the reported
// detector, threshold, and hotspot verdict always belong to the same
// generation (the atomic primary pointer is loaded once per request).
func TestReloadMidTrafficIsConsistent(t *testing.T) {
	// Old: thr 0.3 (density clip scores above it). New: score 0.9, thr 0.7.
	cand := namedDet{name: "cnn-v2", score: 0.9, thr: 0.7}
	_, ts := reloadServer(t, cand, ReloadOptions{})

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			postReload(t, ts, `{"path":"m"}`)
		}
	}()
	for i := 0; i < 50; i++ {
		code, sr := scoreOnce(t, ts)
		if code != http.StatusOK {
			t.Fatalf("score %d status = %d", i, code)
		}
		switch sr.Detector {
		case "density-threshold":
			if sr.Threshold != 0.3 {
				t.Fatalf("old detector with new threshold: %+v", sr)
			}
		case "cnn-v2":
			if sr.Threshold != 0.7 || sr.Score != 0.9 || !sr.Hotspot {
				t.Fatalf("new detector with torn fields: %+v", sr)
			}
		default:
			t.Fatalf("unknown detector %q", sr.Detector)
		}
	}
	<-done
}
