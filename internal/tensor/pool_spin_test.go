//go:build linux

// Tests of the workers' spin window: a worker polls the queue for
// spinWindow after each task before it blocks. They hold it to what the
// pool promised before it spun: an idle pool costs no CPU, Close returns
// once every worker has exited, and nested Run calls finish on a box
// with fewer cores than workers.

package tensor

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// idleCPUBound is the CPU time the whole test process may use over
// 200 ms with a pool whose spin window has passed. A worker that kept
// spinning would use about 200 ms; the runtime's own idle housekeeping
// uses well under a millisecond.
const idleCPUBound = 5 * time.Millisecond

// cpuTime is the process's user and system CPU time so far.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runOnEveryWorker runs one Run call whose shards wait for each other,
// so that the caller, held in the first, leaves every other to a worker,
// and every worker has just run a task when it returns.
func runOnEveryWorker(t *testing.T, p *Pool) {
	t.Helper()
	n := p.Workers() + 1
	var started atomic.Int32
	p.Run(n, n, func(int, int) {
		started.Add(1)
		for deadline := time.Now().Add(30 * time.Second); started.Load() < int32(n); {
			if time.Now().After(deadline) {
				t.Error("the pool's workers did not all take a shard")
				return
			}
			runtime.Gosched()
		}
	})
}

func TestPoolIdleCostsNothing(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	runOnEveryWorker(t, p)
	time.Sleep(10 * spinWindow)
	before := cpuTime(t)
	time.Sleep(200 * time.Millisecond)
	if used := cpuTime(t) - before; used > idleCPUBound {
		t.Fatalf("an idle pool's process used %v of CPU over 200 ms, bound %v", used, idleCPUBound)
	}
}

func TestPoolCloseWhileSpinning(t *testing.T) {
	for i := 0; i < 20; i++ {
		p := NewPool(3)
		// Every worker is polling the queue when Close runs.
		runOnEveryWorker(t, p)
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			p.Close()
		}()
		select {
		case <-closed:
		case <-time.After(30 * time.Second):
			t.Fatal("Close did not return while workers were spinning")
		}
	}
}

// TestPoolOversubscribedNestedRun runs nested Run calls on eight workers
// with two Ps, so that spinning workers outnumber the cores the callers
// need.
func TestPoolOversubscribedNestedRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p := NewPool(8)
	defer p.Close()
	done := make(chan struct{})
	var total atomic.Int64
	go func() {
		defer close(done)
		for iter := 0; iter < 50; iter++ {
			p.Run(8, 8, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					p.Run(32, 4, func(nlo, nhi int) {
						total.Add(int64(nhi - nlo))
					})
				}
			})
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested Run on an oversubscribed pool did not finish")
	}
	if got := total.Load(); got != 50*8*32 {
		t.Fatalf("nested runs covered %d indices, want %d", got, 50*8*32)
	}
}
