package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/qualitymon"
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
func (d namedDet) Score(context.Context, layout.Clip) (float64, error) {
	return d.score, d.err
}

// reloadServer builds a server whose Loader returns cand for any path;
// ro.Path defaults to "model.hsdnn".
func reloadServer(t *testing.T, cand core.Detector, ro ReloadOptions) (*Server, *httptest.Server) {
	t.Helper()
	if ro.Path == "" {
		ro.Path = "model.hsdnn"
	}
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

// liveGeneration is the generation GET /admin/model reports.
func liveGeneration(t *testing.T, ts *httptest.Server) int64 {
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
	return mr.Generation
}

// postRollback is POST /admin/rollback's status.
func postRollback(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	resp, err := http.Post(ts.URL+"/admin/rollback", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
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
	s, ts := reloadServer(t, cand, ReloadOptions{Path: "model-v2.hsdnn"})

	resp := postReload(t, ts, "")
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

	resp := postReload(t, ts, "")
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
	resp := postReload(t, ts, "")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("reload status = %d, want 500", resp.StatusCode)
	}
	if got := reloadCounter(s, "load_failed"); got != 1 {
		t.Fatalf("load_failed counter = %v, want 1", got)
	}
}

// TestAdminReloadNeedsPath: a server configured without a model file
// has nothing to reload.
func TestAdminReloadNeedsPath(t *testing.T) {
	ro := &ReloadOptions{}
	ro.Loader = func(string) (core.Detector, error) { return namedDet{name: "x"}, nil }
	s, err := NewServer(Options{Primary: thresholdDetector{}, Reload: ro})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if resp := postReload(t, ts, ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("pathless reload status = %d, want 400", resp.StatusCode)
	}
}

// TestAdminReloadRefusesRequestPath: a reload that names a file, in a
// JSON body or a ?path= query, is refused 400 before the loader runs:
// nothing is counted and the boot generation keeps serving.
func TestAdminReloadRefusesRequestPath(t *testing.T) {
	var loads atomic.Int32
	ro := &ReloadOptions{Path: "model.hsdnn"}
	ro.Loader = func(string) (core.Detector, error) {
		loads.Add(1)
		return namedDet{name: "cnn-v2", score: 0.9, thr: 0.5}, nil
	}
	s, err := NewServer(Options{Primary: thresholdDetector{}, Reload: ro})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, req := range []struct{ query, body string }{
		{"", `{"path":"/etc/passwd"}`},
		{"?path=/etc/passwd", ""},
		{"?path=model.hsdnn", `{"path":"model.hsdnn"}`},
	} {
		resp, err := http.Post(ts.URL+"/admin/reload"+req.query, "application/json", strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("reload %q %q: status %d, want 400", req.query, req.body, resp.StatusCode)
		}
	}
	if n := loads.Load(); n != 0 {
		t.Fatalf("the loader ran %d times for refused requests", n)
	}
	for _, outcome := range []string{"swapped", "load_failed", "rejected"} {
		if got := reloadCounter(s, outcome); got != 0 {
			t.Fatalf("%s counter = %v, want 0", outcome, got)
		}
	}
	if gen := liveGeneration(t, ts); gen != 1 {
		t.Fatalf("live generation = %d, want the boot generation", gen)
	}
	if code, sr := scoreOnce(t, ts); code != http.StatusOK || sr.Detector != "density-threshold" {
		t.Fatalf("score after refusals = %d %+v, want the boot detector", code, sr)
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
	postReload(t, ts, "")
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
	s, ts := reloadServer(t, bad, ReloadOptions{
		ProbationRequests:    10,
		ProbationMaxFailures: 1,
	})
	if resp := postReload(t, ts, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status = %d", resp.StatusCode)
	}

	// Two primary failures exceed the budget of 1 and trigger rollback.
	// No fallback is configured, so these requests surface as 500s.
	for i := 0; i < 2; i++ {
		if code, _ := scoreOnce(t, ts); code != http.StatusInternalServerError {
			t.Fatalf("flaky score %d status = %d, want 500", i, code)
		}
	}
	if got := liveGeneration(t, ts); got != 1 {
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
			postReload(t, ts, "")
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

// TestSwapResetsQualityMonitor: every generation change resets the
// quality monitor's windows, the reload to a new generation and the
// rollback to the boot generation alike.
func TestSwapResetsQualityMonitor(t *testing.T) {
	qm := qualitymon.New(qualitymon.Options{})
	defer qm.Close()
	cand := namedDet{name: "cnn-v2", score: 0.9, thr: 0.7}
	ro := &ReloadOptions{Path: filepath.Join(t.TempDir(), "cnn-v2.hsdnn")}
	ro.Loader = func(string) (core.Detector, error) { return cand, nil }
	s, err := NewServer(Options{Primary: thresholdDetector{}, Reload: ro, Quality: qm})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// outcomes is the number of primary outcomes in the SLO's slow window.
	outcomes := func() int64 {
		slo := qm.Snapshot().SLO
		return slo.SlowGood + slo.SlowBad
	}
	if code, _ := scoreOnce(t, ts); code != http.StatusOK {
		t.Fatalf("boot score status = %d", code)
	}
	if got := outcomes(); got != 1 {
		t.Fatalf("boot generation left %d primary outcomes, want 1", got)
	}

	if resp := postReload(t, ts, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status = %d", resp.StatusCode)
	}
	if got := outcomes(); got != 0 {
		t.Fatalf("after reload the window holds %d primary outcomes, want 0 (reset)", got)
	}
	if code, _ := scoreOnce(t, ts); code != http.StatusOK {
		t.Fatalf("post-reload score status = %d", code)
	}
	if got := outcomes(); got != 1 {
		t.Fatalf("reloaded generation left %d primary outcomes, want 1", got)
	}

	if code, gen := postRollback(t, ts), liveGeneration(t, ts); code != http.StatusOK || gen != 1 {
		t.Fatalf("rollback status = %d, live generation %d", code, gen)
	}
	if got := outcomes(); got != 0 {
		t.Fatalf("after rollback the window holds %d primary outcomes, want 0 (reset)", got)
	}
}
