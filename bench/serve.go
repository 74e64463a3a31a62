package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	hsd "github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/raster"
	"github.com/golitho/hsd/internal/serve"
)

// serveWorkload is an in-process hsdserve behind net/http on loopback,
// driven closed-loop: callers are tools that wait for a verdict, so a
// client sends its next request only after the previous reply.
type serveWorkload struct {
	seed   int64
	env    *env
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	bodies [][]byte // S1+S2 test clips as GLT, in seeded order
	labels []bool   // the suite's oracle labels, same order
}

func (w *serveWorkload) setup() error {
	e, err := newEnv(w.seed)
	if err != nil {
		return err
	}
	w.env = e
	fallback := hsd.StandardAdaBoost()
	if err := fallback.Fit(e.baseTrain); err != nil {
		return fmt.Errorf("fit fallback: %w", err)
	}
	rng := rand.New(rand.NewSource(w.seed))
	for _, i := range rng.Perm(len(e.test)) {
		body, err := gltBody(e.test[i].Clip)
		if err != nil {
			return err
		}
		w.bodies = append(w.bodies, body)
		w.labels = append(w.labels, e.test[i].Hotspot)
	}
	w.srv, err = serve.NewServer(serve.Options{
		Primary: e.cnn, Fallback: fallback,
		ClipNM: clipNM, CoreFrac: coreFrac,
		DeadlineBudget: 500 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers()}}
	return nil
}

func (w *serveWorkload) close() {
	if w.hs != nil {
		w.client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		w.hs.Shutdown(ctx)
		cancel()
		<-w.served
	}
	w.env.close()
}

// reply is what the load generator keeps of one request, so verdicts
// can be checked after the timed phase.
type reply struct {
	body     int
	latency  time.Duration
	ok       bool // 200 and a decodable verdict
	hotspot  bool
	degraded bool
}

// post sends one body to path and decodes the verdict.
func (w *serveWorkload) post(path string, body int) reply {
	t0 := time.Now()
	resp, err := w.client.Post(w.url+path, "text/plain", bytes.NewReader(w.bodies[body]))
	if err != nil {
		return reply{body: body, latency: time.Since(t0)}
	}
	var sr serve.ScoreResponse
	derr := json.NewDecoder(resp.Body).Decode(&sr)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return reply{body: body, latency: time.Since(t0),
		ok: resp.StatusCode == http.StatusOK && derr == nil, hotspot: sr.Hotspot, degraded: sr.Degraded}
}

// phase is one closed-loop run: clients goroutines each post the next
// body of the seeded order and wait for the verdict, for d.
type phase struct {
	replies []reply
	wall    time.Duration
}

func (w *serveWorkload) runPhase(path string, clients int, d time.Duration) phase {
	var next atomic.Int64
	per := make([][]reply, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1)-1) % len(w.bodies)
				per[c] = append(per[c], w.post(path, i))
			}
		}(c)
	}
	wg.Wait()
	p := phase{wall: time.Since(start)}
	for _, rs := range per {
		p.replies = append(p.replies, rs...)
	}
	return p
}

// latenciesMS returns the phase's request latencies, ascending.
func (p phase) latenciesMS() []float64 {
	out := make([]float64, len(p.replies))
	for i, rp := range p.replies {
		out[i] = ms(rp.latency)
	}
	return sorted(out)
}

// reference is core.Predict on the clip the server derives from each
// body: what every served verdict must equal.
func (w *serveWorkload) reference() ([]bool, error) {
	det := w.env.cnn.CloneDetector()
	ref := make([]bool, len(w.bodies))
	for i, body := range w.bodies {
		clip, err := servedClip(body)
		if err != nil {
			return nil, err
		}
		if ref[i], err = core.Predict(det, clip); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// failures counts replies that are not 200, are degraded, or disagree
// with the reference.
func failures(p phase, ref []bool) int {
	n := 0
	for _, rp := range p.replies {
		if !rp.ok || rp.degraded || rp.hotspot != ref[rp.body] {
			n++
		}
	}
	return n
}

// warm fills connection pools and lazy state before a timed phase.
func (w *serveWorkload) warm(path string, clients int) {
	w.runPhase(path, clients, 200*time.Millisecond)
}

func (w *serveWorkload) measure(d time.Duration, r *result) error {
	w.warm("/score", workers())
	p := w.runPhase("/score", workers(), d)
	ref, err := w.reference()
	if err != nil {
		return err
	}
	r.attempted = len(p.replies)
	r.failed = failures(p, ref)
	lat := p.latenciesMS()
	r.set("throughput_per_s", float64(r.attempted-r.failed)/p.wall.Seconds())
	r.set("latency_p50_ms", median(lat))
	p99, beyond, _ := percentile(lat, 0.99)
	r.note("%d POST /score from %d clients in %.2f s; p99 %.3f ms with %d samples beyond",
		len(p.replies), workers(), p.wall.Seconds(), p99, beyond)
	return nil
}

// series reads one unlabelled series of the server's telemetry: a
// counter's value, or a histogram's observation count and sum.
func (w *serveWorkload) series(name string) (value float64, histCount int64, histSum float64) {
	for _, s := range w.srv.Metrics().Snapshot() {
		if s.Name == name {
			if s.Histogram != nil {
				return 0, s.Histogram.Count, s.Histogram.Sum
			}
			return s.Value, 0, 0
		}
	}
	return 0, 0, 0
}

func (w *serveWorkload) traced(d time.Duration, r *result, tr *tracer) error {
	n := workers()
	ref, err := w.reference()
	if err != nil {
		return err
	}
	// Untraced phases: /score at full width and with one client (the
	// difference is time spent waiting for the single scorer clone),
	// then /batch, which is the only route into the batched engine.
	w.warm("/score", n)
	full := w.runPhase("/score", n, d/4)
	one := w.runPhase("/score", 1, d/4)
	w.warm("/batch", n)
	batch := w.runPhase("/batch", n, d/4)
	batchFailed := failures(batch, ref)
	r.attempted = len(full.replies) + len(one.replies) + len(batch.replies)
	r.failed = failures(full, ref) + failures(one, ref) + batchFailed

	fullLat, oneLat, batchLat := full.latenciesMS(), one.latenciesMS(), batch.latenciesMS()
	r.set("serve.score_p50_ms_c1", median(oneLat))
	r.set("serve.queue_wait_ms", median(fullLat)-median(oneLat))
	if v, beyond, ok := percentile(fullLat, 0.99); ok {
		r.set("serve.score_p99_ms", v)
		r.note("/score p99 over %d requests, %d beyond", len(fullLat), beyond)
	} else {
		r.note("/score p99 not reported: %d requests leave only %d beyond it", len(fullLat), beyond)
	}
	r.set("serve.batch_req_per_s", float64(len(batch.replies)-batchFailed)/batch.wall.Seconds())
	r.set("serve.batch_p50_ms", median(batchLat))
	if v, _, ok := percentile(batchLat, 0.99); ok {
		r.set("serve.batch_p99_ms", v)
	}
	if _, count, sum := w.series("batch_size"); count > 0 {
		r.set("serve.batch_size_mean", sum/float64(count))
	}
	shed, _, _ := w.series("requests_shed_total")
	fell, _, _ := w.series("hotspot_fallbacks_total")
	r.set("serve.shed_n", shed)
	r.set("serve.fallback_n", fell)
	if shed != 0 || fell != 0 {
		r.fail("server shed %v and degraded %v requests; both must be 0", shed, fell)
	}

	// The paper's accuracy metrics, end to end: served verdicts against
	// the suite's oracle labels.
	var tp, fn, fp, tn float64
	for _, rp := range full.replies {
		switch {
		case w.labels[rp.body] && rp.hotspot:
			tp++
		case w.labels[rp.body]:
			fn++
		case rp.hotspot:
			fp++
		default:
			tn++
		}
	}
	if tp+fn > 0 {
		r.set("serve.recall", tp/(tp+fn))
	}
	if fp+tn > 0 {
		r.set("serve.false_alarm_rate", fp/(fp+tn))
	}
	if err := w.noteDirectAccuracy(r); err != nil {
		return err
	}

	// The same serial replay with the tracer off and on.
	tr.on = false
	off, err := w.replay(tr, ref, r)
	if err != nil {
		return err
	}
	tr.on = true
	on, err := w.replay(tr, ref, r)
	if err != nil {
		return err
	}
	layers := tr.byLayer()
	meanUS := func(name string) float64 { return us(layers[name].meanSelf()) }
	handler, trip := meanUS("serve.handler"), meanUS("http.roundtrip")
	r.set("serve.handler_us", handler)
	r.set("serve.http_us", trip-handler)
	r.set("serve.overhead_us", handler-meanUS("layout.read")-meanUS("layout.clipat")-meanUS("core.score"))
	r.set("trace.overhead_frac", on.Seconds()/off.Seconds()-1)
	// The layers telescope to the round trip by construction, so
	// coverage compares the replay's round trip with the untraced
	// one-client latency: it is off when the replay is not the workload.
	r.set("trace.coverage_frac", trip/1000/mean(oneLat))
	r.note("/score %d clients p50 %.3f ms, 1 client p50 %.3f ms; /batch p50 %.3f ms; replay round trip %.1f us, handler %.1f us",
		n, median(fullLat), median(oneLat), median(batchLat), trip, handler)

	clips := make([]layout.Clip, 0, 64)
	for _, lc := range w.env.test {
		if len(clips) < 64 {
			clips = append(clips, lc.Clip)
		}
	}
	return measureLayers(tr, r, w.env, clips)
}

// replay walks every body once with one client and runs the request
// path at each depth in turn — over loopback, through the handler, then
// the pipeline by hand — one span per call. The depths are separate
// executions of the same work, not nested spans: the program's own
// spans stay unused, so a layer's share is the difference between
// consecutive depths.
func (w *serveWorkload) replay(tr *tracer, ref []bool, r *result) (time.Duration, error) {
	nd := w.env.cnn.CloneDetector().(*hsd.NeuralDetector)
	net, ex := nd.Network(), nd.Ex
	handler := w.srv.Handler()
	ctx := context.Background()
	t0 := time.Now()
	for i, body := range w.bodies {
		root := tr.begin("request", -1, i)
		sp := tr.begin("http.roundtrip", root, i)
		rp := w.post("/score", i)
		tr.end(sp)
		if !rp.ok || rp.degraded || rp.hotspot != ref[i] {
			r.failed++
		}
		r.attempted++

		req := httptest.NewRequest(http.MethodPost, "/score", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		sp = tr.begin("serve.handler", root, i)
		handler.ServeHTTP(rec, req)
		tr.end(sp)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("handler replay: status %d", rec.Code)
		}

		sp = tr.begin("layout.read", root, i)
		l, err := layout.Read(bytes.NewReader(body))
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		sp = tr.begin("layout.clipat", root, i)
		clip, err := l.ClipAt(l.Bounds().Center(), clipNM, coreFrac)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		sp = tr.begin("core.score", root, i)
		_, err = core.ScoreClipCtx(ctx, nd, clip)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		sp = tr.begin("features.extract", root, i)
		v, err := ex.Extract(clip)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		sp = tr.begin("nn.score", root, i)
		score := nn.Score(net, v)
		tr.end(sp)
		if (score >= nd.Threshold()) != ref[i] {
			return 0, fmt.Errorf("hand pipeline disagrees with core.Predict on body %d", i)
		}
		sp = tr.begin("raster.rasterize", root, i)
		_, err = raster.Rasterize(raster.Config{Window: clip.Window, PixelNM: 8}, clip.Shapes)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		tr.end(root)
	}
	return time.Since(t0), nil
}

// noteDirectAccuracy prints the detector's accuracy on the suite's
// clips as labelled, next to the served figures: the server re-centres
// a posted layout on its shapes, so it scores a different window than
// the one the oracle labelled, and the two accuracies differ.
func (w *serveWorkload) noteDirectAccuracy(r *result) error {
	det := w.env.cnn.CloneDetector()
	var tp, hot, fp, cold float64
	for _, lc := range w.env.test {
		flagged, err := core.Predict(det, lc.Clip)
		if err != nil {
			return err
		}
		switch {
		case lc.Hotspot:
			hot++
			if flagged {
				tp++
			}
		default:
			cold++
			if flagged {
				fp++
			}
		}
	}
	r.note("core.Predict on the clips as labelled: recall %.3f, false-alarm rate %.3f (served verdicts are on re-centred windows)",
		tp/hot, fp/cold)
	return nil
}
