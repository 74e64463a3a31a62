// POST /batch micro-batching: concurrent score requests are coalesced
// into one vectorized pass through the primary detector.
//
// The first request of a window becomes the batch leader; followers
// append themselves and wait. The leader flushes when the batch reaches
// Options.BatchMaxSize or Options.BatchMaxWait elapses, whichever comes
// first, scoring every collected clip in a single BatchScorer call
// behind the same breaker/deadline/fallback cascade as /score. Scores
// are identical to /score (the batched inference path is bit-equal to
// the serial one), so batching changes latency, never verdicts.

package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/faultinject"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/qualitymon"
	"github.com/golitho/hsd/internal/resilience"
	"github.com/golitho/hsd/internal/trace"
)

// batchResult is one request's outcome, delivered on its done channel.
type batchResult struct {
	resp ScoreResponse
	err  error
}

// batchItem is one request waiting in a pending batch.
type batchItem struct {
	clip layout.Clip
	ctx  context.Context
	done chan batchResult // buffered; flush never blocks on delivery
}

// pendingBatch collects items until it is flushed by its leader.
type pendingBatch struct {
	items []*batchItem
	full  chan struct{} // closed when the batch reaches maxSize
}

// batcher coalesces submissions into pending batches. There is no
// background goroutine: the leader request drives the flush, so the
// batcher needs no lifecycle management.
type batcher struct {
	srv     *Server
	maxSize int
	maxWait time.Duration
	clock   resilience.Clock

	mu  sync.Mutex
	cur *pendingBatch
}

// submit enqueues one clip and blocks until its batch is scored or ctx
// is done. Cancelled submissions stop waiting immediately; the flusher
// later skips them without scoring.
func (b *batcher) submit(ctx context.Context, clip layout.Clip) (ScoreResponse, error) {
	item := &batchItem{clip: clip, ctx: ctx, done: make(chan batchResult, 1)}
	b.mu.Lock()
	leader := b.cur == nil
	if leader {
		b.cur = &pendingBatch{full: make(chan struct{})}
	}
	pb := b.cur
	pb.items = append(pb.items, item)
	if len(pb.items) >= b.maxSize {
		// Full: detach so the next submission opens a fresh batch, and
		// wake the leader without waiting out the batch window.
		b.cur = nil
		close(pb.full)
	}
	b.mu.Unlock()

	if sp := trace.FromContext(ctx); sp != nil {
		if leader {
			sp.AddEvent("batch-leader")
		} else {
			sp.AddEvent("batch-follower")
		}
	}
	if leader {
		select {
		case <-pb.full:
		case <-b.clock.After(b.maxWait):
			b.detach(pb)
		case <-ctx.Done():
			// A cancelled leader still owes its followers a flush.
			b.detach(pb)
		}
		b.flush(ctx, pb)
	}
	select {
	case res := <-item.done:
		return res.resp, res.err
	case <-ctx.Done():
		return ScoreResponse{}, ctx.Err()
	}
}

// detach removes pb from the collection slot (if still there) so the
// next submission opens a fresh batch.
func (b *batcher) detach(pb *pendingBatch) {
	b.mu.Lock()
	if b.cur == pb {
		b.cur = nil
	}
	b.mu.Unlock()
}

// flush scores a detached batch and delivers per-item results. Items
// whose context is already done are answered with that error and
// excluded from the scoring pass. The pass runs under a "batch.flush"
// span on the leader's trace; follower traces record their membership
// via the batch-follower event instead.
func (b *batcher) flush(ctx context.Context, pb *pendingBatch) {
	live := make([]*batchItem, 0, len(pb.items))
	for _, it := range pb.items {
		if err := it.ctx.Err(); err != nil {
			it.done <- batchResult{err: err}
			continue
		}
		live = append(live, it)
	}
	if len(live) == 0 {
		return
	}
	fctx, fsp := trace.Start(ctx, "batch.flush")
	fsp.SetAttrInt("size", len(live))
	b.srv.batchSize.Observe(float64(len(live)))
	start := b.clock.Now()
	b.srv.batchCascade(fctx, live)
	b.srv.batchLatency.ObserveDuration(b.clock.Now().Sub(start))
	fsp.End()
}

// batchCascade is the /score degradation ladder applied to a whole
// batch: primary (vectorized, behind breaker + budget + panic capture),
// then per-item fallback. One primary failure degrades every request in
// the batch — the requests shared the failed pass — but never 5xxes
// them while a fallback exists.
func (s *Server) batchCascade(ctx context.Context, items []*batchItem) {
	clips := make([]layout.Clip, len(items))
	for i, it := range items {
		clips[i] = it.clip
	}
	prim := *s.primary.Load()
	var primaryErr error
	reason := ""
	if s.breaker.Allow() {
		var scores []float64
		pctx, psp := trace.Start(ctx, "primary", trace.A("detector", prim.Name()))
		scores, primaryErr = s.scoreBatchPrimary(pctx, prim, clips)
		psp.SetError(primaryErr)
		psp.End()
		s.breaker.Record(primaryErr)
		s.reportOutcome(primaryErr)
		if primaryErr == nil {
			name, thr := prim.Name(), prim.Threshold()
			for i, it := range items {
				s.quality.Observe(qualitymon.Event{
					Detector: name, Stage: "primary",
					Score: scores[i], Threshold: thr,
					Clip: it.clip, HasClip: true,
				})
				it.done <- batchResult{resp: ScoreResponse{
					Detector: name, Score: scores[i],
					Threshold: thr, Hotspot: scores[i] >= thr,
				}}
			}
			return
		}
		s.primaryErrs.Inc()
		reason = degradedReason(primaryErr)
	} else {
		primaryErr = resilience.ErrOpen
		reason = "breaker-open"
		trace.FromContext(ctx).AddEvent("breaker-open")
	}
	// The whole batch degrades together: mark every member's own trace,
	// not just the leader's, so each request's record explains itself.
	for _, it := range items {
		if sp := trace.FromContext(it.ctx); sp != nil {
			sp.AddEvent("degrade", trace.A("reason", reason))
			sp.SetFlag(trace.FlagDegraded)
		}
	}
	if s.fallback == nil {
		for _, it := range items {
			it.done <- batchResult{err: primaryErr}
		}
		return
	}
	name, thr := s.fallback.Name(), s.fallback.Threshold()
	fctx, fsp := trace.Start(ctx, "fallback", trace.A("detector", name))
	defer fsp.End()
	for _, it := range items {
		score, err := core.ScoreClipCtx(fctx, s.fallback, it.clip)
		if err != nil {
			it.done <- batchResult{err: fmt.Errorf("fallback (after primary %s): %w", reason, err)}
			continue
		}
		s.fallbacks.Inc()
		s.quality.Observe(qualitymon.Event{
			Detector: name, Stage: "fallback",
			Score: score, Threshold: thr,
			Clip: it.clip, HasClip: true,
		})
		it.done <- batchResult{resp: ScoreResponse{
			Detector: name, Score: score,
			Threshold: thr, Hotspot: score >= thr,
			Degraded: true, DegradedReason: reason,
		}}
	}
}

// scoreBatchPrimary runs prim's batch path under a fresh deadline
// budget (the batch outlives any single request context, so only the
// parent's values — the trace span — survive, not its cancellation),
// converting panics to errors exactly like scorePrimary.
func (s *Server) scoreBatchPrimary(parent context.Context, prim core.Detector, clips []layout.Clip) ([]float64, error) {
	ctx, cancel := resilience.WithBudget(context.WithoutCancel(parent), s.opts.DeadlineBudget)
	defer cancel()
	type outcome struct {
		scores []float64
		err    error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				s.panics.Inc()
				ch <- outcome{nil, &panicError{val: p}}
			}
		}()
		if err := faultinject.Hit(PrimarySite); err != nil {
			ch <- outcome{nil, err}
			return
		}
		scores, err := core.ScoreClipsCtx(ctx, prim, clips)
		ch <- outcome{scores, err}
	}()
	select {
	case out := <-ch:
		return out.scores, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// handleBatch is POST /batch: one clip per request, scored through the
// micro-batcher. The response schema matches /score.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !s.admit(w, r) {
		return
	}
	clip, err := s.readClip(w, r)
	if err != nil {
		clipError(w, err)
		return
	}
	resp, err := s.batch.submit(r.Context(), clip)
	if err != nil {
		s.cascadeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
