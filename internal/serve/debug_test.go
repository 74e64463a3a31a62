package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

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
