// POST /batch micro-batching: concurrent score requests are coalesced
// into one vectorized pass through the primary detector. A request
// whose clip the live score cache holds is answered before it joins a
// batch, so only misses wait for company.
//
// The first request of a window becomes the batch leader; followers
// append themselves and wait. The leader flushes when the batch reaches
// Options.BatchMaxSize or Options.BatchMaxWait elapses, whichever comes
// first, and hands every collected clip to Server.cascade — the ladder
// /score runs with one clip — so the batch's score-cache misses share
// one breaker decision and one vectorized primary pass. Scores are
// identical to /score (the batched inference path is bit-equal to the
// serial one), so batching changes latency, never verdicts.

package serve

import (
	"context"
	"net/http"
	"sync"

	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/resilience"
	"github.com/golitho/hsd/internal/trace"
)

// batchItem is one request waiting in a pending batch.
type batchItem struct {
	clip layout.Clip
	ctx  context.Context
	done chan scoreResult // buffered; flush never blocks on delivery
}

// pendingBatch collects items until it is flushed by its leader.
type pendingBatch struct {
	items []*batchItem
	full  chan struct{} // closed when the batch reaches BatchMaxSize
}

// batcher coalesces submissions into pending batches. There is no
// background goroutine: the leader request drives the flush, so the
// batcher needs no lifecycle management. Its size cap, wait and clock
// are the server's Options.
type batcher struct {
	srv *Server

	mu  sync.Mutex
	cur *pendingBatch
}

// submit enqueues one clip and blocks until its batch is scored or ctx
// is done. Cancelled submissions stop waiting immediately; the flusher
// later skips them without scoring.
func (b *batcher) submit(ctx context.Context, clip layout.Clip) (ScoreResponse, error) {
	item := &batchItem{clip: clip, ctx: ctx, done: make(chan scoreResult, 1)}
	b.mu.Lock()
	leader := b.cur == nil
	if leader {
		b.cur = &pendingBatch{full: make(chan struct{})}
	}
	pb := b.cur
	pb.items = append(pb.items, item)
	if len(pb.items) >= b.srv.opts.BatchMaxSize {
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
		case <-b.srv.opts.Clock.After(b.srv.opts.BatchMaxWait):
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

// flush scores a detached batch through the cascade and delivers
// per-item results. Items whose context is already done are answered
// with that error and excluded from the scoring pass. The pass runs
// under a "batch.flush" span on the leader's trace, and under a fresh
// deadline budget: the batch outlives any single request context, so
// only the leader's values — the trace span — survive, not its
// cancellation. Follower traces record their membership via the
// batch-follower event instead.
func (b *batcher) flush(ctx context.Context, pb *pendingBatch) {
	live := make([]*batchItem, 0, len(pb.items))
	items := make([]scoreItem, 0, len(pb.items))
	for _, it := range pb.items {
		if err := it.ctx.Err(); err != nil {
			it.done <- scoreResult{err: err}
			continue
		}
		live = append(live, it)
		items = append(items, scoreItem{clip: it.clip, span: trace.FromContext(it.ctx)})
	}
	if len(live) == 0 {
		return
	}
	fctx, fsp := trace.Start(ctx, "batch.flush")
	fsp.SetAttrInt("size", len(live))
	b.srv.batchSize.Observe(float64(len(live)))
	bctx, cancel := resilience.WithBudget(context.WithoutCancel(fctx), b.srv.opts.DeadlineBudget)
	defer cancel()
	start := b.srv.opts.Clock.Now()
	for i, res := range b.srv.cascade(bctx, items) {
		live[i].done <- res
	}
	b.srv.batchLatency.ObserveDuration(b.srv.opts.Clock.Now().Sub(start))
	fsp.End()
}

// handleBatch is POST /batch: one clip per request, answered from the
// score cache when it holds the clip and otherwise scored through the
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
	// A hit is answered as cascade answers it, without waiting for
	// company.
	if resp, ok := s.lookup(s.live.Load(), &scoreItem{clip: clip, span: trace.FromContext(r.Context())}); ok {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	resp, err := s.batch.submit(r.Context(), clip)
	if err != nil {
		s.cascadeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
