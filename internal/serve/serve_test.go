package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/features"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/lithosim"
	"github.com/golitho/hsd/internal/nn"
)

// thresholdDetector flags clips whose drawn density exceeds 0.3.
type thresholdDetector struct{}

func (thresholdDetector) Name() string                       { return "density-threshold" }
func (thresholdDetector) Fit(train []core.LabeledClip) error { return nil }
func (thresholdDetector) Threshold() float64                 { return 0.3 }
func (thresholdDetector) Score(clip layout.Clip) (float64, error) {
	return clip.Density(), nil
}

func gltBody(t *testing.T, shapes ...geom.Rect) *bytes.Buffer {
	t.Helper()
	l := layout.New("req")
	for _, s := range shapes {
		if err := l.AddRect(s); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := layout.Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func newTestServer(t *testing.T, withSim bool) *httptest.Server {
	t.Helper()
	var sim *lithosim.Simulator
	if withSim {
		var err error
		sim, err = lithosim.New(lithosim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewServer(Options{Primary: thresholdDetector{}, Sim: sim})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, false)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" || body["detector"] != "density-threshold" {
		t.Fatalf("body = %v", body)
	}
}

func TestScoreEndpoint(t *testing.T) {
	ts := newTestServer(t, false)
	// Dense clip: a big block -> hotspot under the threshold detector.
	resp, err := http.Post(ts.URL+"/score", "text/plain",
		gltBody(t, geom.R(0, 0, 1024, 1024)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out ScoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Hotspot || out.Score < 0.9 {
		t.Fatalf("dense clip verdict = %+v", out)
	}

	// Sparse clip: not a hotspot.
	resp2, err := http.Post(ts.URL+"/score", "text/plain",
		gltBody(t, geom.R(0, 0, 64, 64)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var out2 ScoreResponse
	if err := json.NewDecoder(resp2.Body).Decode(&out2); err != nil {
		t.Fatal(err)
	}
	if out2.Hotspot {
		t.Fatalf("sparse clip flagged: %+v", out2)
	}
}

func TestScoreRejectsBadRequests(t *testing.T) {
	ts := newTestServer(t, false)
	resp, err := http.Post(ts.URL+"/score", "text/plain", strings.NewReader("not glt"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage status = %d", resp.StatusCode)
	}
	// Wrong method.
	resp2, err := http.Get(ts.URL + "/score")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", resp2.StatusCode)
	}
	// Empty layout.
	resp3, err := http.Post(ts.URL+"/score", "text/plain",
		strings.NewReader("GLT 1\nLAYOUT x\nEND\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty layout status = %d", resp3.StatusCode)
	}
}

func TestVerifyEndpoint(t *testing.T) {
	ts := newTestServer(t, true)
	// Two lines 36 nm apart centred in the window: a bridge hotspot.
	resp, err := http.Post(ts.URL+"/verify", "text/plain",
		gltBody(t, geom.R(0, 400, 1024, 500), geom.R(0, 536, 1024, 636)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out VerifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Hotspot || len(out.Defects) == 0 {
		t.Fatalf("bridge pair verdict = %+v", out)
	}
	if out.Defects[0].Type != "bridge" {
		t.Fatalf("first defect = %+v, want bridge", out.Defects[0])
	}
}

func TestVerifyDisabled(t *testing.T) {
	ts := newTestServer(t, false)
	resp, err := http.Post(ts.URL+"/verify", "text/plain",
		gltBody(t, geom.R(0, 0, 100, 100)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status = %d, want 501", resp.StatusCode)
	}
}

func TestConcurrentScoring(t *testing.T) {
	ts := newTestServer(t, false)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/score", "text/plain",
				gltBody(t, geom.R(0, 0, 512, 1024)))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var out ScoreResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := NewServer(Options{}); err == nil {
		t.Fatal("nil detector accepted")
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	ts := newTestServer(t, false)
	// A syntactically endless GLT body beyond the 4 MiB cap: the server
	// must cut it off with 413, not 400.
	line := []byte("RECT 0 0 10 10\n")
	var buf bytes.Buffer
	buf.WriteString("GLT 1\nLAYOUT big\n")
	for buf.Len() < maxBodyBytes+1<<20 {
		buf.Write(line)
	}
	resp, err := http.Post(ts.URL+"/score", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

// panicDetector blows up on Score to exercise panic recovery.
type panicDetector struct{ thresholdDetector }

func (panicDetector) Score(layout.Clip) (float64, error) { panic("scoring bug") }

func TestPanicRecovery(t *testing.T) {
	s, err := NewServer(Options{Primary: panicDetector{}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/score", "text/plain",
		gltBody(t, geom.R(0, 0, 100, 100)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if got := s.Metrics().Counter("http_panics_total").Value(); got != 1 {
		t.Fatalf("http_panics_total = %v, want 1", got)
	}
	// The server must still answer after the panic.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic = %d", resp2.StatusCode)
	}
}

// TestMetricsReflectTraffic drives /score traffic (including an error)
// and asserts GET /metrics reports matching counters and latency
// histogram counts.
func TestMetricsReflectTraffic(t *testing.T) {
	ts := newTestServer(t, false)
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/score", "text/plain",
			gltBody(t, geom.R(0, 0, 512, 512)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	respBad, err := http.Post(ts.URL+"/score", "text/plain", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	respBad.Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := body.String()
	for _, want := range []string{
		`http_requests_total{code="200",endpoint="/score"} 3`,
		`http_requests_total{code="400",endpoint="/score"} 1`,
		`http_errors_total{endpoint="/score"} 1`,
		`http_request_seconds_count{endpoint="/score"} 4`,
		`# TYPE http_request_seconds histogram`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n---\n%s", want, text)
		}
	}

	// Wrong method on /metrics.
	respPost, err := http.Post(ts.URL+"/metrics", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	respPost.Body.Close()
	if respPost.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics status = %d, want 405", respPost.StatusCode)
	}
}

func TestVerifyNilSimulatorOversizedAndMethods(t *testing.T) {
	ts := newTestServer(t, false)
	// /verify with nil simulator takes the 501 path before touching the
	// body.
	resp, err := http.Post(ts.URL+"/verify", "text/plain",
		gltBody(t, geom.R(0, 0, 100, 100)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("nil-sim verify status = %d, want 501", resp.StatusCode)
	}
	// Wrong method on every POST endpoint.
	for _, path := range []string{"/score", "/verify"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s status = %d, want 405", path, r.StatusCode)
		}
	}
	// Wrong method on /healthz.
	r, err := http.Post(ts.URL+"/healthz", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz status = %d, want 405", r.StatusCode)
	}
}

// fitTestCNN trains a small CNN on synthetic stripes; the labels are
// arbitrary, since only what the network answers is compared.
func fitTestCNN(t *testing.T) *core.NeuralDetector {
	t.Helper()
	w := geom.R(0, 0, 1024, 1024)
	var train []core.LabeledClip
	for i := 0; i < 24; i++ {
		train = append(train, core.LabeledClip{
			Clip:    layout.Clip{Window: w, Core: w, Shapes: []geom.Rect{geom.R(0, 0, 64+32*i, 1024)}},
			Hotspot: i%2 == 0,
		})
	}
	det := core.NewCNNDetector(&features.DCT{Blocks: 8, Coefs: 8},
		nn.CNNConfig{Conv1: 4, Conv2: 4, Hidden: 8, BatchNorm: true},
		nn.TrainConfig{Epochs: 1, BatchSize: 8, Seed: 2}, "cnn")
	det.NoScale = true
	if err := det.Fit(train); err != nil {
		t.Fatal(err)
	}
	return det
}

// TestConcurrentScoreSharedCNN: the server scores every request on the
// one primary detector with no lock, so 16 concurrent POST /score
// against a shared CNN must return exactly the verdicts the same
// requests get one at a time. Meaningful under -race.
func TestConcurrentScoreSharedCNN(t *testing.T) {
	s, err := NewServer(Options{Primary: fitTestCNN(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	const n = 16
	post := func(i int) (ScoreResponse, error) {
		var out ScoreResponse
		resp, err := http.Post(ts.URL+"/score", "text/plain",
			gltBody(t, geom.R(0, 0, 48+40*i, 1024)))
		if err != nil {
			return out, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return out, fmt.Errorf("status %d", resp.StatusCode)
		}
		return out, json.NewDecoder(resp.Body).Decode(&out)
	}
	want := make([]ScoreResponse, n)
	distinct := map[float64]bool{}
	for i := range want {
		if want[i], err = post(i); err != nil {
			t.Fatalf("serial request %d: %v", i, err)
		}
		distinct[want[i].Score] = true
	}
	if len(distinct) < n/2 {
		t.Fatalf("only %d distinct scores over %d clips: the fixture is degenerate", len(distinct), n)
	}

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := post(i)
			if err != nil {
				t.Errorf("concurrent request %d: %v", i, err)
				return
			}
			if got != want[i] {
				t.Errorf("concurrent request %d: %+v, serial %+v", i, got, want[i])
			}
		}(i)
	}
	wg.Wait()
}
