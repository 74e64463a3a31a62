// Pool concurrency tests. Run with -race: the properties under test are
// exactly the ones the race detector sees — concurrent Run callers on a
// shared pool, Close racing in-flight work, nested Run from inside a
// pool task, and cancellation leaving output buffers quiescent.

package tensor

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runCovers asserts one Run call visits every index exactly once.
func runCovers(t *testing.T, p *Pool, n, maxShards int) {
	t.Helper()
	hits := make([]int32, n)
	p.Run(n, maxShards, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestPoolRunCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			for _, shards := range []int{-1, 0, 1, 2, 16, 2000} {
				runCovers(t, p, n, shards)
			}
		}
		p.Close()
	}
}

func TestPoolConcurrentCallers(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	const callers = 8
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each caller owns its own hits slice; shards from different
			// calls interleave on the shared workers.
			for iter := 0; iter < 50; iter++ {
				hits := make([]int32, 100)
				p.Run(len(hits), 8, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						hits[i]++
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Errorf("caller saw index %d visited %d times", i, h)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestPoolNestedRun exercises Run called from inside a pool task — the
// batched-inference shape (PredictBatch chunks calling the parallel
// matmul). The help-first wait must keep this deadlock-free even when
// every worker is itself blocked in a nested wait.
func TestPoolNestedRun(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var total atomic.Int64
		p.Run(8, 8, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				p.Run(32, 4, func(nlo, nhi int) {
					total.Add(int64(nhi - nlo))
				})
			}
		})
		if got := total.Load(); got != 8*32 {
			t.Errorf("nested runs covered %d indices, want %d", got, 8*32)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested Run deadlocked")
	}
}

func TestPoolCloseDuringInFlightRun(t *testing.T) {
	p := NewPool(2)
	release := make(chan struct{})
	started := make(chan struct{}, 64)
	var visited atomic.Int64
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		p.Run(64, 64, func(lo, hi int) {
			started <- struct{}{}
			<-release
			visited.Add(int64(hi - lo))
		})
	}()
	<-started // at least one shard is running
	closeDone := make(chan struct{})
	go func() {
		defer close(closeDone)
		p.Close()
	}()
	close(release)
	<-runDone
	select {
	case <-closeDone:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return")
	}
	if got := visited.Load(); got != 64 {
		t.Fatalf("visited %d indices, want 64", got)
	}
	// A Run after Close still completes (inline).
	runCovers(t, p, 10, 4)
}

func TestSetDefaultWorkers(t *testing.T) {
	old := Default()
	SetDefaultWorkers(4)
	defer SetDefaultWorkers(0)
	p := Default()
	if p == old {
		t.Fatal("SetDefaultWorkers did not swap the pool")
	}
	if got := p.Workers(); got != 3 {
		t.Fatalf("Workers() = %d, want 3 (n-1 dedicated + caller)", got)
	}
	runCovers(t, p, 100, 8)
}
