package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"github.com/golitho/hsd/internal/qualitymon"
	"github.com/golitho/hsd/internal/trace"
)

// TestDebugTracesRetainsCapacity: behind a tracer of capacity 64,
// GET /debug/traces?limit=0 lists exactly 64 /score traces after the
// small suite's 155 distinct test clips were posted one after another,
// and every trace after fewer posts than the capacity. The detector is
// a small CNN, so each trace carries the raster, features and inference
// spans a served model produces.
func TestDebugTracesRetainsCapacity(t *testing.T) {
	const capacity = 64
	det, bodies := smallSuiteCNN(t, 8, 4, 4, 8)
	for _, posts := range []int{capacity / 2, len(bodies)} {
		t.Run(fmt.Sprintf("posts=%d", posts), func(t *testing.T) {
			tr := trace.New(trace.Config{Capacity: capacity})
			s, err := NewServer(Options{Primary: det, Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			for _, body := range bodies[:posts] {
				if got := postBody(t, ts.URL, "/score", body); got.Degraded {
					t.Fatalf("degraded answer %+v", got)
				}
			}
			resp, err := http.Get(ts.URL + "/debug/traces?limit=0")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var got tracesResponse
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			if got.Kept != int64(posts) {
				t.Fatalf("kept = %d, want %d (the default sampler keeps every trace)", got.Kept, posts)
			}
			if want := min(posts, capacity); len(got.Traces) != want {
				t.Fatalf("/debug/traces lists %d traces after %d posts, want %d", len(got.Traces), posts, want)
			}
			for _, rec := range got.Traces {
				if rec.Root != "http /score" {
					t.Fatalf("retained a %q trace, want only /score", rec.Root)
				}
			}
		})
	}
}

// TestDebugQualityKeys: GET /debug/quality on the serving mux answers
// with exactly the spot-check, SLO and alert sections and the snapshot
// instant, after a scored clip fed the monitor.
func TestDebugQualityKeys(t *testing.T) {
	qm := qualitymon.New(qualitymon.Options{})
	defer qm.Close()
	s, err := NewServer(Options{Primary: thresholdDetector{}, Quality: qm})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, _ := scoreOnce(t, ts); code != http.StatusOK {
		t.Fatalf("score status = %d", code)
	}
	resp, err := http.Get(ts.URL + "/debug/quality")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range doc {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"alert", "at", "slo", "spot_check"}; !slices.Equal(keys, want) {
		t.Fatalf("/debug/quality keys = %v, want %v", keys, want)
	}
}

// TestDebugQualityOneRatePair: /debug/quality serves spot-check recall
// and false-alarm rate once, in spot_check.window beside the confusion
// counts they are computed from, and not again at spot_check's top level.
func TestDebugQualityOneRatePair(t *testing.T) {
	qm := qualitymon.New(qualitymon.Options{})
	defer qm.Close()
	s, err := NewServer(Options{Primary: thresholdDetector{}, Quality: qm})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/quality")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		SpotCheck map[string]json.RawMessage `json:"spot_check"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"recall", "false_alarm"} {
		if _, ok := doc.SpotCheck[k]; ok {
			t.Errorf("spot_check carries a top-level %q; the rate pair lives in spot_check.window", k)
		}
	}
	var window map[string]json.RawMessage
	if err := json.Unmarshal(doc.SpotCheck["window"], &window); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"tp", "fp", "tn", "fn", "recall", "false_alarm"} {
		if _, ok := window[k]; !ok {
			t.Errorf("spot_check.window lacks %q", k)
		}
	}
}

// TestDebugMuxServesPprofOnly: the private debug listener serves
// profiles and nothing the serving mux already does.
func TestDebugMuxServesPprofOnly(t *testing.T) {
	qm := qualitymon.New(qualitymon.Options{})
	defer qm.Close()
	s, err := NewServer(Options{Primary: thresholdDetector{}, Tracer: trace.New(trace.Config{}), Quality: qm})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.DebugMux())
	defer ts.Close()
	for path, want := range map[string]int{
		"/debug/pprof/":        http.StatusOK,
		"/debug/traces":        http.StatusNotFound,
		"/debug/traces/chrome": http.StatusNotFound,
		"/debug/quality":       http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("debug mux GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}
