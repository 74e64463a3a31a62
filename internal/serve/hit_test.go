package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/iccad"
	"github.com/golitho/hsd/internal/layout"
)

// TestServedClipMatchesClipAt holds readClip, which cuts the clip from
// the parsed shapes without a Layout, to the clip layout.Read and
// ClipAt give for every clip body of the small suite, at the default
// geometry and at another.
func TestServedClipMatchesClipAt(t *testing.T) {
	suite, err := iccad.GenerateSuite(iccad.SmallSuiteConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for _, b := range suite.Benchmarks {
		for _, smp := range append(b.Train.Samples, b.Test.Samples...) {
			bodies = append(bodies, clipBody(t, smp.Clip.Shapes))
		}
	}
	for _, geo := range []struct {
		clipNM   int
		coreFrac float64
	}{{1024, 0.5}, {700, 0.3}} {
		s, err := NewServer(Options{Primary: thresholdDetector{}, ClipNM: geo.clipNM, CoreFrac: geo.coreFrac})
		if err != nil {
			t.Fatal(err)
		}
		for i, body := range bodies {
			got, err := s.readClip(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/score", bytes.NewReader(body)))
			if err != nil {
				t.Fatalf("body %d: %v", i, err)
			}
			l, err := layout.Read(bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			want, err := l.ClipAt(l.Bounds().Center(), geo.clipNM, geo.coreFrac)
			if err != nil {
				t.Fatal(err)
			}
			if got.Window != want.Window || got.Core != want.Core || !slices.Equal(got.Shapes, want.Shapes) {
				t.Fatalf("%d nm, core %v, body %d: served clip %v, ClipAt's %v", geo.clipNM, geo.coreFrac, i, got, want)
			}
		}
	}
	if len(bodies) < 100 {
		t.Fatalf("only %d small-suite bodies", len(bodies))
	}
}

// hitAllocs bounds the allocations of one /score hit through the
// handler, without the network: the 9 measured when the bound was set
// (14 while the parsed shapes grew by doubling, 77 before the hit path
// was trimmed) plus two. They are the body buffer, its reader and size
// limit, the parsed shapes (sized once from the body), the clipped
// shapes, the status recorder, the Content-Type header, the JSON encoder
// and the boxed verdict. A hit that builds a Layout, an index or a
// deadline, or allocates per line or per shape, goes past it.
const hitAllocs = 9 + 2

// TestServeHitAllocations pins hitAllocs.
func TestServeHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	s, err := NewServer(Options{Primary: thresholdDetector{}, DeadlineBudget: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	// Twenty wires and vias, the size of a suite clip: an allocation a
	// line or a shape would show twenty times over.
	var shapes []geom.Rect
	for i := 0; i < 10; i++ {
		shapes = append(shapes, geom.R(0, 100*i, 1024, 100*i+40), geom.R(100*i, 50+100*i, 100*i+40, 90+100*i))
	}
	body := bytes.NewReader(clipBody(t, shapes))
	req := httptest.NewRequest(http.MethodPost, "/score", body)
	w := &discardWriter{header: http.Header{}}
	post := func() {
		if _, err := body.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		w.code = 0
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
	}
	post() // the miss that stores the clip
	allocs := testing.AllocsPerRun(100, post)
	if hits := s.cacheHits.Value(); hits < 100 {
		t.Fatalf("%v hits: the runs were not cache hits", hits)
	}
	if allocs > hitAllocs {
		t.Fatalf("a /score hit allocates %v times, want at most %d", allocs, hitAllocs)
	}
	t.Logf("a /score hit allocates %v times", allocs)
}

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(b), nil
}

func (w *discardWriter) WriteHeader(code int) { w.code = code }
