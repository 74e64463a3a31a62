package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
)

func postBatch(t *testing.T, url string) (*http.Response, ScoreResponse) {
	t.Helper()
	return postBatchRect(t, url, geom.R(0, 0, 1024, 1024))
}

// postBatchRect posts a clip of the one rectangle r to /batch.
func postBatchRect(t *testing.T, url string, r geom.Rect) (*http.Response, ScoreResponse) {
	t.Helper()
	resp, err := http.Post(url+"/batch", "text/plain", gltBody(t, r))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ScoreResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

// testBatchClip builds the dense in-package clip used by the direct
// submit tests.
func testBatchClip(t *testing.T) layout.Clip {
	t.Helper()
	l := layout.New("batch")
	if err := l.AddRect(geom.R(0, 0, 1024, 1024)); err != nil {
		t.Fatal(err)
	}
	clip, err := l.ClipAt(geom.Pt(512, 512), 1024, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return clip
}

// TestBatchMatchesScore: a /batch verdict is identical to the /score
// verdict for the same body — batching must never change scores.
func TestBatchMatchesScore(t *testing.T) {
	ts := newTestServer(t, false)
	_, want := postScore(t, ts.URL)
	resp, got := postBatch(t, ts.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	if got != want {
		t.Fatalf("/batch verdict %+v != /score verdict %+v", got, want)
	}
}

// TestBatchCoalescing: with a long batch window, concurrent requests
// coalesce into exactly one scoring pass of the full batch size, and the
// batch_size histogram records it.
func TestBatchCoalescing(t *testing.T) {
	s, err := NewServer(Options{
		Primary:      thresholdDetector{},
		BatchMaxSize: 4,
		BatchMaxWait: 30 * time.Second, // flush only on a full batch
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	outs := make([]ScoreResponse, 4)
	codes := make([]int, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, out := postBatch(t, ts.URL)
			codes[i], outs[i] = resp.StatusCode, out
		}(i)
	}
	wg.Wait()
	for i := range outs {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status = %d", i, codes[i])
		}
		if !outs[i].Hotspot || outs[i].Degraded {
			t.Fatalf("request %d: verdict %+v", i, outs[i])
		}
	}
	if n, sum := s.batchSize.Count(), s.batchSize.Sum(); n != 1 || sum != 4 {
		t.Fatalf("batch_size observations = %d (sum %v), want one batch of 4", n, sum)
	}
	if s.batchLatency.Count() != 1 {
		t.Fatalf("batch_latency observations = %d, want 1", s.batchLatency.Count())
	}
	text := metricsText(t, ts.URL)
	for _, want := range []string{"batch_size_count 1", "batch_size_sum 4"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n---\n%s", want, text)
		}
	}
}

// TestBatchOverlapping floods the endpoint so multiple batches are in
// flight at once (full flushes racing window flushes); every request
// must still get a correct, non-degraded verdict. Run with -race this is
// the overlapping-batch data-race gate. Each request posts its own
// translated copy of the dense square, so none is a score-cache hit and
// every one is scored in a batch.
func TestBatchOverlapping(t *testing.T) {
	s, err := NewServer(Options{
		Primary:      thresholdDetector{},
		BatchMaxSize: 2,
		BatchMaxWait: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	const n = 24
	var wg sync.WaitGroup
	errs := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, out := postBatchRect(t, ts.URL, geom.R(i, 0, i+1024, 1024))
			if resp.StatusCode != http.StatusOK {
				errs <- "non-200 under overlap"
				return
			}
			if !out.Hotspot || out.Degraded {
				errs <- "wrong verdict under overlap"
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
	if got := int(s.batchSize.Sum()); got != n {
		t.Fatalf("batch_size sum = %d, want %d requests scored", got, n)
	}
}

// TestBatchCancelledMidBatch: a request cancelled while waiting in a
// pending batch gets its context error without being scored, and the
// rest of the batch is unaffected.
func TestBatchCancelledMidBatch(t *testing.T) {
	s, err := NewServer(Options{
		Primary:      thresholdDetector{},
		BatchMaxSize: 2,
		BatchMaxWait: time.Hour, // only a full batch flushes
	})
	if err != nil {
		t.Fatal(err)
	}
	clip := testBatchClip(t)

	type result struct {
		resp ScoreResponse
		err  error
	}
	leaderDone := make(chan result, 1)
	go func() {
		resp, err := s.batch.submit(context.Background(), clip)
		leaderDone <- result{resp, err}
	}()
	// Wait until the leader is enqueued before submitting the follower.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.batch.mu.Lock()
		pending := 0
		if s.batch.cur != nil {
			pending = len(s.batch.cur.items)
		}
		s.batch.mu.Unlock()
		if pending == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never enqueued")
		}
		time.Sleep(time.Millisecond)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.batch.submit(cancelled, clip); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit err = %v, want context.Canceled", err)
	}
	lr := <-leaderDone
	if lr.err != nil {
		t.Fatalf("leader err = %v", lr.err)
	}
	if !lr.resp.Hotspot || lr.resp.Degraded {
		t.Fatalf("leader verdict = %+v", lr.resp)
	}
	// Only the live item was scored.
	if n, sum := s.batchSize.Count(), s.batchSize.Sum(); n != 1 || sum != 1 {
		t.Fatalf("batch_size = %d obs (sum %v), want one batch of 1", n, sum)
	}
}

// TestBatchCancelledLeader: cancelling the leader while it waits out the
// batch window flushes immediately — followers are still answered.
func TestBatchCancelledLeader(t *testing.T) {
	s, err := NewServer(Options{
		Primary:      thresholdDetector{},
		BatchMaxSize: 8,
		BatchMaxWait: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	clip := testBatchClip(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.batch.submit(ctx, clip)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.batch.mu.Lock()
		pending := 0
		if s.batch.cur != nil {
			pending = len(s.batch.cur.items)
		}
		s.batch.mu.Unlock()
		if pending == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("leader err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled leader never returned")
	}
}

// TestBatchMethodAndParse: /batch mirrors /score on bad input.
func TestBatchMethodAndParse(t *testing.T) {
	ts := newTestServer(t, false)
	resp, err := http.Get(ts.URL + "/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/batch", "text/plain", strings.NewReader("not a layout"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body status = %d, want 400", resp.StatusCode)
	}
}
