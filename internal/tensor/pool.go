// Persistent worker pool for row-sharded kernels.
//
// The first parallel kernels spawned goroutines per call, and
// BenchmarkParallelMatMul showed the spawn + schedule cost eating the
// whole parallelism win (parallel matmul measured *slower* than serial). The
// pool below keeps a fixed set of workers alive for the process lifetime
// and hands them coarse contiguous shards over a channel, so the
// per-call cost is a few channel operations instead of goroutine
// creation.
//
// Two properties make the pool safe to call from anywhere, including
// from inside another pool task (nested parallelism: PredictBatch chunks
// calling the parallel matmul):
//
//  1. The calling goroutine participates: it executes its first shard
//     itself, then *helps* — while waiting for its own shards it drains
//     the shared queue, executing whatever tasks it finds (its own or
//     other calls'). Blocked waiters therefore always make progress, so
//     nesting cannot deadlock.
//  2. A full queue or a closed pool degrades to inline execution, so a
//     Run call can always finish with no workers at all. On a
//     single-core box (GOMAXPROCS=1 ⇒ zero dedicated workers) the
//     parallel entry points cost one branch over the serial kernel
//     instead of a goroutine storm.

package tensor

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// call tracks one Run invocation's outstanding shards.
type call struct {
	pending atomic.Int32
	done    chan struct{}
}

// poolTask is one contiguous shard of a Run call.
type poolTask struct {
	fn     func(lo, hi int)
	lo, hi int
	call   *call
}

func (t poolTask) run() {
	t.fn(t.lo, t.hi)
	if t.call.pending.Add(-1) == 0 {
		close(t.call.done)
	}
}

// Pool executes index-range shards on persistent worker goroutines.
// Safe for concurrent use: any number of goroutines may Run work on one
// pool, and shards from different calls interleave freely because every
// shard owns a disjoint index range of its caller's data.
type Pool struct {
	// lifecycle guards tasks against send-on-closed: Run holds it shared
	// for the enqueue phase, Close holds it exclusively to close.
	lifecycle sync.RWMutex
	tasks     chan poolTask
	closed    atomic.Bool
	workers   int
	done      sync.WaitGroup
}

// NewPool starts a pool with the given number of dedicated worker
// goroutines. Zero workers is valid and means every Run executes
// entirely on the calling goroutine.
func NewPool(workers int) *Pool {
	if workers < 0 {
		workers = 0
	}
	p := &Pool{
		// Buffer a few shards per executor so an enqueueing caller
		// rarely blocks before it starts helping.
		tasks:   make(chan poolTask, 4*(workers+1)),
		workers: workers,
	}
	p.done.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.done.Done()
			for t := range p.tasks {
				t.run()
			}
		}()
	}
	return p
}

// Workers returns the number of dedicated worker goroutines. The
// effective parallelism of a Run call is Workers()+1: the caller
// participates.
func (p *Pool) Workers() int { return p.workers }

// Run splits [0, n) into at most maxShards contiguous ranges and
// executes fn on each, returning when every shard has finished. fn must
// confine itself to state owned by its range. maxShards <= 0 means
// Workers()+1. Run never fails: on a closed pool (or one with no
// workers) it executes every shard inline.
func (p *Pool) Run(n, maxShards int, fn func(lo, hi int)) {
	p.run(nil, n, maxShards, fn)
}

// RunCtx is Run with cooperative cancellation observed at shard
// boundaries: once ctx is cancelled, shards that have not started are
// skipped and RunCtx returns ctx.Err(). Shards already running finish
// normally — fn is never interrupted mid-range, so the caller's output
// buffers are quiescent when RunCtx returns.
func (p *Pool) RunCtx(ctx context.Context, n, maxShards int, fn func(lo, hi int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p.run(ctx, n, maxShards, fn)
	return ctx.Err()
}

func (p *Pool) run(ctx context.Context, n, maxShards int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if maxShards <= 0 {
		maxShards = p.workers + 1
	}
	if maxShards > n {
		maxShards = n
	}
	body := fn
	if ctx != nil {
		body = func(lo, hi int) {
			if ctx.Err() != nil {
				return // cancelled: skip shards that have not started
			}
			fn(lo, hi)
		}
	}
	if maxShards <= 1 || p.workers == 0 || p.closed.Load() {
		body(0, n)
		return
	}
	chunk := (n + maxShards - 1) / maxShards
	cs := &call{done: make(chan struct{})}
	cs.pending.Store(int32((n + chunk - 1) / chunk))
	// The caller keeps the first shard for itself and offers the rest to
	// the workers; whatever does not fit the queue (or races a Close) is
	// kept for inline execution, so Run can never block on the send.
	p.lifecycle.RLock()
	closed := p.closed.Load()
	var inline []poolTask
	for lo := chunk; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		t := poolTask{fn: body, lo: lo, hi: hi, call: cs}
		if closed {
			inline = append(inline, t)
			continue
		}
		select {
		case p.tasks <- t:
		default:
			inline = append(inline, t)
		}
	}
	p.lifecycle.RUnlock()
	poolTask{fn: body, lo: 0, hi: min(chunk, n), call: cs}.run()
	for _, t := range inline {
		t.run()
	}
	// Help-first wait: while our shards are outstanding, execute tasks
	// from the shared queue (ours or other calls') instead of parking.
	// This keeps nested Run calls deadlock-free — a waiter is always
	// also an executor.
	queue := p.tasks
	for {
		select {
		case <-cs.done:
			return
		case t, ok := <-queue:
			if !ok {
				// Pool closed under us; our remaining shards are being
				// finished by exiting workers. Just wait.
				queue = nil
				continue
			}
			t.run()
		}
	}
}

// Close shuts the pool down gracefully: shards already enqueued are
// executed, workers then exit, and Close returns once they have. Run
// calls racing with or following Close still complete — they execute
// their shards inline — so shutdown never strands a caller.
func (p *Pool) Close() {
	p.lifecycle.Lock()
	already := p.closed.Swap(true)
	if !already {
		close(p.tasks)
	}
	p.lifecycle.Unlock()
	p.done.Wait()
}

// defaultPool is the process-wide pool behind ParallelMatMulInto and the
// nn batched-inference path, created on first use with GOMAXPROCS-1
// dedicated workers (the caller is the final executor).
var defaultPool atomic.Pointer[Pool]

// Default returns the process-wide kernel pool, creating it on first use.
func Default() *Pool {
	if p := defaultPool.Load(); p != nil {
		return p
	}
	p := NewPool(runtime.GOMAXPROCS(0) - 1)
	if !defaultPool.CompareAndSwap(nil, p) {
		p.Close()
	}
	return defaultPool.Load()
}

// SetDefaultWorkers replaces the process-wide pool with one whose total
// parallelism (dedicated workers + the calling goroutine) is n; n <= 0
// restores the GOMAXPROCS default. The previous pool is drained and
// closed. Intended for process boot (-kernel-workers) and tests.
func SetDefaultWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	old := defaultPool.Swap(NewPool(n - 1))
	if old != nil {
		old.Close()
	}
}
