package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/faultinject"
	"github.com/golitho/hsd/internal/features"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/iccad"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/registry"
	"github.com/golitho/hsd/internal/resilience"
	"github.com/golitho/hsd/internal/trace"
)

// clipBody serializes shapes as the GLT body a client posts.
func clipBody(t testing.TB, shapes []geom.Rect) []byte {
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
	return buf.Bytes()
}

// servedClip is the clip the server scores for body: the window of the
// default geometry centred on the shapes' bounding box.
func servedClip(t testing.TB, body []byte) layout.Clip {
	t.Helper()
	l, err := layout.Read(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	clip, err := l.ClipAt(l.Bounds().Center(), 1024, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return clip
}

// postBody posts body to path and decodes a 200 verdict.
func postBody(t testing.TB, url, path string, body []byte) ScoreResponse {
	t.Helper()
	resp, err := http.Post(url+path, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return ScoreResponse{}
	}
	defer resp.Body.Close()
	var out ScoreResponse
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST %s: status %d", path, resp.StatusCode)
		return out
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Error(err)
	}
	return out
}

// cacheCounts reads the three cache counters.
func cacheCounts(s *Server) (hits, misses, evictions float64) {
	return s.cacheHits.Value(), s.cacheMisses.Value(), s.cacheEvicted.Value()
}

// cacheState returns the live cache's entry count and held rectangles.
func cacheState(s *Server) (entries, held int) {
	c := s.live.Load().cache
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.held
}

// denseClip is the clip of one rectangle filling the default window.
func denseClip(t *testing.T) layout.Clip {
	t.Helper()
	l := layout.New("dense")
	if err := l.AddRect(geom.R(0, 0, 1024, 1024)); err != nil {
		t.Fatal(err)
	}
	clip, err := l.ClipAt(geom.Pt(512, 512), 1024, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return clip
}

// smallSuiteCNN fits a small CNN on the small suite's first training
// split and returns it with every test clip of the suite as a body.
func smallSuiteCNN(t testing.TB, blocks, conv1, conv2, hidden int) (*core.NeuralDetector, [][]byte) {
	t.Helper()
	suite, err := iccad.GenerateSuite(iccad.SmallSuiteConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewCNNDetector(&features.DCT{Blocks: blocks, Coefs: blocks},
		nn.CNNConfig{Conv1: conv1, Conv2: conv2, Hidden: hidden, Seed: 1},
		nn.TrainConfig{Epochs: 1, BatchSize: 32, Seed: 1}, "cnn")
	det.NoScale = true
	if err := det.Fit(core.FromSamples(suite.Benchmarks[0].Train.Samples)); err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for _, b := range suite.Benchmarks {
		for _, smp := range b.Test.Samples {
			bodies = append(bodies, clipBody(t, smp.Clip.Shapes))
		}
	}
	return det, bodies
}

// TestScoreCacheSmallSuiteBits posts every test clip of the small suite
// to /score twice: the miss and the hit both carry the detector's Score
// bits on the served clip.
func TestScoreCacheSmallSuiteBits(t *testing.T) {
	det, bodies := smallSuiteCNN(t, 8, 4, 4, 8)
	want := make([]float64, len(bodies))
	for i, body := range bodies {
		var err error
		if want[i], err = det.Score(context.Background(), servedClip(t, body)); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("/score", func(t *testing.T) {
		s, err := NewServer(Options{Primary: det})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		for round := 0; round < 2; round++ {
			hits0, _, _ := cacheCounts(s)
			for i, body := range bodies {
				got := postBody(t, ts.URL, "/score", body)
				if math.Float64bits(got.Score) != math.Float64bits(want[i]) || got.Degraded {
					t.Fatalf("round %d clip %d: %+v, want score %v", round, i, got, want[i])
				}
			}
			hits, misses, _ := cacheCounts(s)
			if round == 0 && hits+misses != float64(len(bodies)) {
				t.Fatalf("round 0: %v hits + %v misses, want %d lookups", hits, misses, len(bodies))
			}
			if round == 1 && hits-hits0 != float64(len(bodies)) {
				t.Fatalf("round 1: %v hits, want every one of %d clips", hits-hits0, len(bodies))
			}
		}
	})
}

// TestScoreCacheFollowsGeneration: the cache belongs to the live
// generation, so after a reload to different weights the same clip gets
// the new model's score, and after a rollback the old one's.
func TestScoreCacheFollowsGeneration(t *testing.T) {
	old := fitTestCNN(t)
	cand := core.NewCNNDetector(&features.DCT{Blocks: 8, Coefs: 8},
		nn.CNNConfig{Conv1: 4, Conv2: 4, Hidden: 8, Seed: 7},
		nn.TrainConfig{Epochs: 1, BatchSize: 8, Seed: 7}, "cnn-v2")
	cand.NoScale = true
	if err := cand.Fit([]core.LabeledClip{
		{Clip: denseClip(t), Hotspot: true},
		{Clip: layout.Clip{Window: geom.R(0, 0, 1024, 1024), Core: geom.R(256, 256, 768, 768)}},
	}); err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Options{Primary: old, Reload: &ReloadOptions{Path: "v2", Config: registry.Config{
		Loader: func(string) (core.Detector, error) { return cand, nil },
	}}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	body := clipBody(t, []geom.Rect{geom.R(0, 0, 300, 1024), geom.R(500, 0, 560, 1024)})
	clip := servedClip(t, body)
	score := func(det core.Detector) float64 {
		v, err := det.Score(context.Background(), clip)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	wantOld, wantNew := score(old), score(cand)
	if wantOld == wantNew {
		t.Fatal("the two generations score the clip alike: the fixture proves nothing")
	}
	check := func(step string, want float64, wantHits, wantMisses float64) {
		t.Helper()
		if got := postBody(t, ts.URL, "/score", body); got.Score != want {
			t.Fatalf("%s: score %v, want %v", step, got.Score, want)
		}
		if hits, misses, _ := cacheCounts(s); hits != wantHits || misses != wantMisses {
			t.Fatalf("%s: %v hits, %v misses, want %v and %v", step, hits, misses, wantHits, wantMisses)
		}
	}
	check("boot miss", wantOld, 0, 1)
	check("boot hit", wantOld, 1, 1)
	if resp := postReload(t, ts, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	check("reloaded miss", wantNew, 1, 2)
	check("reloaded hit", wantNew, 2, 2)
	if code := postRollback(t, ts); code != http.StatusOK {
		t.Fatalf("rollback status %d", code)
	}
	check("rolled-back miss", wantOld, 2, 3)
	check("rolled-back hit", wantOld, 3, 3)
}

// TestScoreCacheCollisionIsMiss plants another clip's score under a
// clip's key, as a fingerprint collision would: the request is a miss,
// gets its own score, and replaces the planted entry.
func TestScoreCacheCollisionIsMiss(t *testing.T) {
	s, err := NewServer(Options{Primary: thresholdDetector{}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	body := clipBody(t, []geom.Rect{geom.R(0, 0, 1024, 400)})
	clip := servedClip(t, body)
	impostor := clip
	impostor.Shapes = []geom.Rect{geom.R(0, 0, 1024, 1024)}
	s.live.Load().cache.put(keyOf(clip), impostor, 42)

	for i := 0; i < 2; i++ {
		if got := postBody(t, ts.URL, "/score", body); got.Score != clip.Density() {
			t.Fatalf("post %d: score %v, want the clip's own %v", i, got.Score, clip.Density())
		}
	}
	if hits, misses, _ := cacheCounts(s); hits != 1 || misses != 1 {
		t.Fatalf("%v hits, %v misses, want the planted entry to miss once, then the stored one to hit", hits, misses)
	}
}

// TestScoreCacheTranslatedCopyIsMiss: a translated copy shares the
// fingerprint but not the window origin, so it is a miss with an entry
// of its own.
func TestScoreCacheTranslatedCopyIsMiss(t *testing.T) {
	s, err := NewServer(Options{Primary: thresholdDetector{}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	shapes := []geom.Rect{geom.R(0, 0, 200, 1024), geom.R(400, 0, 1024, 300)}
	moved := make([]geom.Rect, len(shapes))
	for i, r := range shapes {
		moved[i] = r.Translate(geom.Pt(5000, 3000))
	}
	a, b := clipBody(t, shapes), clipBody(t, moved)
	if ka, kb := keyOf(servedClip(t, a)), keyOf(servedClip(t, b)); ka.fp != kb.fp || ka == kb {
		t.Fatalf("keys %+v and %+v: want one fingerprint at two origins", ka, kb)
	}
	for _, body := range [][]byte{a, b, a, b} {
		postBody(t, ts.URL, "/score", body)
	}
	if hits, misses, _ := cacheCounts(s); hits != 2 || misses != 2 {
		t.Fatalf("%v hits, %v misses, want 2 and 2", hits, misses)
	}
	if n, _ := cacheState(s); n != 2 {
		t.Fatalf("%d entries, want one per copy", n)
	}
}

// TestScoreCacheHostileBodiesBounded posts distinct clips of
// layout.MaxClipShapes tiny rectangles each, the most a served clip may
// hold, more rectangles in all than the budget: the cache evicts and
// never holds more than the budget.
func TestScoreCacheHostileBodiesBounded(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("posts over a thousand clips at the shape bound")
	}
	s, err := NewServer(Options{Primary: thresholdDetector{}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// Each clip is the frame, a marker and tiny rectangles: MaxClipShapes
	// shapes, stored with its window.
	const tiny = layout.MaxClipShapes - 2
	bodies := scoreCacheRects/(layout.MaxClipShapes+1) + 16
	var buf bytes.Buffer
	buf.WriteString("GLT 1\nLAYOUT hostile\n")
	for i := 0; i < tiny; i++ {
		x, y := i%100*10, i/100*10
		fmt.Fprintf(&buf, "RECT %d %d %d %d\n", x, y, x+1, y+1)
	}
	// The frame fixes the window; the marker makes each body distinct.
	buf.WriteString("RECT 0 1023 1024 1024\n")
	head := buf.Len()
	for b := 0; b < bodies; b++ {
		buf.Truncate(head)
		x, y := b%1000, 1000+b/1000*2
		fmt.Fprintf(&buf, "RECT %d %d %d %d\nEND\n", x, y, x+1, y+1)
		postBody(t, ts.URL, "/score", buf.Bytes())
		if _, held := cacheState(s); held > scoreCacheRects {
			t.Fatalf("after body %d the cache holds %d rectangles, over the %d budget", b, held, scoreCacheRects)
		}
	}
	if _, misses, evictions := cacheCounts(s); misses != float64(bodies) || evictions == 0 {
		t.Fatalf("%v misses, %v evictions: want %d misses and some evictions", misses, evictions, bodies)
	}
}

// TestScoreCacheLRU pins the budget rules on a small cache: the least
// recently used entry goes first, a replaced key releases its old cost,
// and an entry larger than the budget is not stored.
func TestScoreCacheLRU(t *testing.T) {
	clip := func(n int) layout.Clip {
		c := layout.Clip{Window: geom.R(0, 0, 1024, 1024)}
		for i := 0; i < n; i++ {
			c.Shapes = append(c.Shapes, geom.R(i, 0, i+1, 1))
		}
		return c
	}
	c := newScoreCache(10)
	a, b, d := clip(3), clip(4), clip(2) // costs 4, 5 and 3
	if n := c.put(keyOf(a), a, 1) + c.put(keyOf(b), b, 2); n != 0 || c.held != 9 {
		t.Fatalf("evicted %d, held %d, want 0 and 9", n, c.held)
	}
	if _, ok := c.get(keyOf(a), a); !ok { // a is now the most recent
		t.Fatal("a missed")
	}
	if n := c.put(keyOf(d), d, 3); n != 1 || c.held != 7 {
		t.Fatalf("evicted %d, held %d, want b evicted and 7 held", n, c.held)
	}
	if _, ok := c.get(keyOf(b), b); ok {
		t.Fatal("b survived although it was least recently used")
	}
	if n := c.put(keyOf(a), a, 4); n != 0 || c.held != 7 {
		t.Fatalf("replacing a: evicted %d, held %d, want 0 and 7", n, c.held)
	}
	if v, ok := c.get(keyOf(a), a); !ok || v != 4 {
		t.Fatalf("a = %v, %v, want the replacement 4", v, ok)
	}
	big := clip(10)
	if n := c.put(keyOf(big), big, 5); n != 0 || c.held != 7 || len(c.entries) != 2 {
		t.Fatalf("oversized put: evicted %d, held %d, %d entries; want it refused", n, c.held, len(c.entries))
	}
}

// TestScoreCacheConcurrentPosts posts one clip from many goroutines;
// meaningful under -race.
func TestScoreCacheConcurrentPosts(t *testing.T) {
	s, err := NewServer(Options{Primary: fitTestCNN(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	body := clipBody(t, []geom.Rect{geom.R(0, 0, 300, 1024)})
	want := postBody(t, ts.URL, "/score", body)
	const n, each = 16, 4
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				path := "/score"
				if (g+i)%2 == 1 {
					path = "/batch"
				}
				if got := postBody(t, ts.URL, path, body); got != want {
					t.Errorf("goroutine %d post %d: %+v, want %+v", g, i, got, want)
				}
			}
		}(g)
	}
	wg.Wait()
	if hits, misses, _ := cacheCounts(s); hits != n*each || misses != 1 {
		t.Fatalf("%v hits, %v misses, want %d and 1", hits, misses, n*each)
	}
}

// cachedServer boots a server with a fallback, posts body once so its
// clip is cached, and returns both.
func cachedServer(t *testing.T, opts Options, body []byte) (*Server, *httptest.Server) {
	t.Helper()
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	opts.Primary, opts.Fallback = thresholdDetector{}, fallbackDetector{}
	s, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if got := postBody(t, ts.URL, "/score", body); got.Degraded {
		t.Fatalf("priming post degraded: %+v", got)
	}
	return s, ts
}

var (
	cachedBody = []byte("GLT 1\nLAYOUT a\nRECT 0 0 1024 600\nEND\n")
	otherBody  = []byte("GLT 1\nLAYOUT b\nRECT 0 0 1024 700\nEND\n")
	thirdBody  = []byte("GLT 1\nLAYOUT c\nRECT 0 0 1024 800\nEND\n")
)

// TestChaosCacheHitSkipsPrimary: with the primary panicking on every
// call, a cached clip is still answered by the primary's stored verdict
// without firing serve.primary, and its trace shows the hit and no
// primary span.
func TestChaosCacheHitSkipsPrimary(t *testing.T) {
	tr := trace.New(trace.Config{Capacity: 8, SampleRate: 1})
	s, ts := cachedServer(t, Options{Tracer: tr}, cachedBody)
	faultinject.Set(PrimarySite, faultinject.Fault{Panic: "chaos: primary bug"})
	for i := 0; i < 5; i++ {
		if got := postBody(t, ts.URL, "/score", cachedBody); got.Degraded || got.Detector != "density-threshold" {
			t.Fatalf("hit %d: %+v, want the primary's stored verdict", i, got)
		}
	}
	if got := faultinject.Fired(PrimarySite); got != 0 {
		t.Fatalf("serve.primary fired %d times on hits", got)
	}
	if st := s.live.Load().breaker.State(); st != resilience.StateClosed || s.primaryErrs.Value() != 0 {
		t.Fatalf("breaker %v, %v primary failures: hits must not count", st, s.primaryErrs.Value())
	}
	rec := tr.Traces(1)[0]
	hit := false
	for _, sp := range rec.Spans {
		if sp.Name == "primary" {
			t.Fatalf("a hit's trace has a primary span: %+v", rec.Spans)
		}
		for _, ev := range sp.Events {
			hit = hit || ev.Name == "score-cache-hit"
		}
	}
	if !hit {
		t.Fatalf("a hit's trace has no score-cache-hit event: %+v", rec.Spans)
	}
}

// TestChaosCacheHitKeepsHalfOpenProbe: once the cool-down has passed, a
// hit leaves the breaker as it was, and the next miss is the probe.
func TestChaosCacheHitKeepsHalfOpenProbe(t *testing.T) {
	clk := resilience.NewFakeClock(time.Unix(0, 0))
	s, ts := cachedServer(t, Options{
		Breaker: resilience.BreakerConfig{FailureThreshold: 1, OpenTimeout: 10 * time.Second},
		Clock:   clk,
	}, cachedBody)
	faultinject.Set(PrimarySite, faultinject.Fault{Err: errors.New("chaos error"), Count: 1})
	if got := postBody(t, ts.URL, "/score", otherBody); got.DegradedReason != "error" {
		t.Fatalf("tripping miss: %+v, want degraded error", got)
	}
	clk.Advance(11 * time.Second)
	if got := postBody(t, ts.URL, "/score", cachedBody); got.Degraded {
		t.Fatalf("hit under an open breaker: %+v, want the stored primary verdict", got)
	}
	if st := s.live.Load().breaker.State(); st != resilience.StateOpen {
		t.Fatalf("breaker %v after the hit, want still open: a hit must not take the probe", st)
	}
	if got := postBody(t, ts.URL, "/score", thirdBody); got.Degraded {
		t.Fatalf("probe miss: %+v, want the primary's verdict", got)
	}
	if st := s.live.Load().breaker.State(); st != resilience.StateClosed {
		t.Fatalf("breaker %v after the probe, want closed", st)
	}
}

// TestChaosCacheHitsSkipProbation: hits report no probation outcome, so
// a window of three requests has judged one outcome after one miss and
// many hits, and the previous generation can still be rolled back to.
func TestChaosCacheHitsSkipProbation(t *testing.T) {
	cand := namedDet{name: "cnn-v2", score: 0.9, thr: 0.5}
	s, ts := reloadServer(t, cand, ReloadOptions{ProbationRequests: 3})
	if resp := postReload(t, ts, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	for i := 0; i < 10; i++ {
		postBody(t, ts.URL, "/score", cachedBody)
	}
	if hits, misses, _ := cacheCounts(s); hits != 9 || misses != 1 {
		t.Fatalf("%v hits, %v misses, want 9 and 1", hits, misses)
	}
	if n := s.live.Load().judged.Load(); n != 1 {
		t.Fatalf("probation judged %d outcomes, want the miss's alone", n)
	}
	if code := postRollback(t, ts); code != http.StatusOK {
		t.Fatalf("rollback status %d", code)
	}
}

// TestChaosCacheMixedBatchDegradesMisses: under a primary that panics
// on every run, a batch of requests mixing misses and a hit degrades its
// misses only; the hit keeps the stored primary verdict, and the
// degraded scores are not stored.
func TestChaosCacheMixedBatchDegradesMisses(t *testing.T) {
	s, ts := cachedServer(t, Options{Breaker: resilience.BreakerConfig{FailureThreshold: 100}}, cachedBody)
	faultinject.Set(PrimarySite, faultinject.Fault{Panic: "chaos: primary bug"})
	for i, body := range [][]byte{otherBody, cachedBody, thirdBody} {
		got := postBody(t, ts.URL, "/score", body)
		if hit := i == 1; got.Degraded == hit {
			t.Fatalf("request %d: %+v; want degraded=%v", i, got, !hit)
		}
		if i == 1 && got.Detector != "density-threshold" {
			t.Fatalf("hit %+v: want the primary's verdict", got)
		}
		if i != 1 && got.DegradedReason != "panic" {
			t.Fatalf("miss %d %+v: want a panic-degraded verdict", i, got)
		}
	}
	if n, _ := cacheState(s); n != 1 {
		t.Fatalf("%d entries after failed passes, want only the primed one", n)
	}
	faultinject.Reset()
	if got := postBody(t, ts.URL, "/score", otherBody); got.Degraded {
		t.Fatalf("retried miss after the fault: %+v, want the primary", got)
	}
}

// slowDetector is the density detector that, while slow is set, sleeps
// past any test deadline before answering, and reports each return.
type slowDetector struct {
	thresholdDetector
	slow     *atomic.Bool
	returned chan struct{}
}

func (d slowDetector) Score(ctx context.Context, clip layout.Clip) (float64, error) {
	if d.slow.Load() {
		time.Sleep(100 * time.Millisecond)
		defer func() { d.returned <- struct{}{} }()
	}
	return d.thresholdDetector.Score(ctx, clip)
}

// TestChaosCacheLateScoreNotStored: a primary score that arrives after
// the request's deadline degraded it is dropped, not stored.
func TestChaosCacheLateScoreNotStored(t *testing.T) {
	det := slowDetector{slow: new(atomic.Bool), returned: make(chan struct{}, 1)}
	det.slow.Store(true)
	s, err := NewServer(Options{Primary: det, Fallback: fallbackDetector{}, DeadlineBudget: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if got := postBody(t, ts.URL, "/score", cachedBody); got.DegradedReason != "deadline" {
		t.Fatalf("slow post: %+v, want degraded deadline", got)
	}
	<-det.returned
	if n, _ := cacheState(s); n != 0 {
		t.Fatalf("%d entries after a late score, want none", n)
	}
	det.slow.Store(false)
	for i := 0; i < 2; i++ {
		if got := postBody(t, ts.URL, "/score", cachedBody); got.Degraded {
			t.Fatalf("post %d: %+v, want the primary", i, got)
		}
	}
	if hits, misses, _ := cacheCounts(s); hits != 1 || misses != 2 {
		t.Fatalf("%v hits, %v misses, want the late clip to miss again, then hit", hits, misses)
	}
}

// missBodies returns n bodies no server has seen: each is a suite clip
// with one extra square, placed where no earlier body put it.
func missBodies(b *testing.B, bodies [][]byte, n int) [][]byte {
	unique := make([][]byte, n)
	for i := range unique {
		clip := servedClip(b, bodies[i%len(bodies)])
		at := clip.Window.Min.Add(geom.Pt(8*(i%128), 8*(i/128%128)))
		unique[i] = clipBody(b, append(clip.Shapes, geom.Rect{Min: at, Max: at.Add(geom.Pt(4, 4))}))
	}
	return unique
}

// BenchmarkServeScoreCache is /score through the handler, without the
// network, on a CNN of the zoo's shape: "hit" posts one clip the cache
// already holds; "miss" posts a clip never seen before every iteration,
// so it pays the lookup on top of raster, DCT and network.
func BenchmarkServeScoreCache(b *testing.B) {
	det, bodies := smallSuiteCNN(b, 16, 16, 24, 48)
	// serve posts body to a fresh server's handler, or to the last one's.
	var srv *Server
	var h http.Handler
	serve := func(fresh bool, body []byte) {
		if fresh {
			var err error
			if srv, err = NewServer(Options{Primary: det, DeadlineBudget: 500 * time.Millisecond}); err != nil {
				b.Fatal(err)
			}
			h = srv.Handler()
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/score", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	b.Run("hit", func(b *testing.B) {
		serve(true, bodies[0])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(false, bodies[0])
		}
	})
	b.Run("miss", func(b *testing.B) {
		unique := missBodies(b, bodies, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(i == 0, unique[i])
		}
		if hits := srv.cacheHits.Value(); hits != 0 {
			b.Fatalf("%v hits: the miss bodies repeat", hits)
		}
	})
}
