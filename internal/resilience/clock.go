// Package resilience provides the dependency-free availability
// primitives of the serving stack: a circuit breaker, a token-bucket
// load shedder, jittered-backoff retry, and deadline-budget helpers.
//
// The paper's shallow-to-deep detector spectrum trades accuracy for
// cost; this package turns that spectrum into an availability ladder.
// When the deep (expensive) path saturates or fails, these primitives
// decide — deterministically and observably — when to stop sending it
// traffic, when to probe it again, and how much of a request's deadline
// each stage may spend.
//
// All types take an injectable Clock so state transitions are testable
// without wall-clock sleeps.
package resilience

import (
	"sort"
	"sync"
	"time"
)

// Clock abstracts time so breaker cool-downs, bucket refills, retry
// backoffs and the scan journal's commit age can be driven
// deterministically in tests.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// NewTimer returns a timer that fires once d has elapsed.
	NewTimer(d time.Duration) Timer
}

// Timer is a Clock's one-shot timer. A loop that waits many times holds
// one and re-arms it.
type Timer interface {
	// C delivers the time once the timer fires.
	C() <-chan time.Time
	// Reset re-arms the timer to fire d from now. As with time.Timer,
	// call it only on a timer whose firing was received or that never
	// fired.
	Reset(d time.Duration)
	// Stop disarms the timer.
	Stop()
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) NewTimer(d time.Duration) Timer {
	r := &realTimer{c: make(chan time.Time, 1)}
	r.t = time.AfterFunc(d, r.fire)
	return r
}

// realTimer delivers on its own channel from an AfterFunc timer: under
// this module's go 1.22 line a time.NewTimer counts a non-default
// asynctimerchan setting, and the first count in a process allocates
// some fifty objects.
type realTimer struct {
	t *time.Timer
	c chan time.Time
}

func (r *realTimer) fire() {
	select {
	case r.c <- time.Now():
	default:
	}
}

func (r *realTimer) C() <-chan time.Time   { return r.c }
func (r *realTimer) Reset(d time.Duration) { r.t.Reset(d) }
func (r *realTimer) Stop()                 { r.t.Stop() }

// Real is the wall clock.
var Real Clock = realClock{}

// FakeClock is a manually advanced Clock for tests. The zero value is
// not usable; use NewFakeClock.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []fakeWaiter
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

// NewFakeClock returns a FakeClock frozen at start.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now implements Clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// NewTimer implements Clock: the timer fires when Advance moves the
// clock past d. A non-positive d fires it at once.
func (c *FakeClock) NewTimer(d time.Duration) Timer {
	t := &fakeTimer{clock: c, ch: make(chan time.Time, 1)}
	t.Reset(d)
	return t
}

type fakeTimer struct {
	clock *FakeClock
	ch    chan time.Time
}

func (t *fakeTimer) C() <-chan time.Time { return t.ch }

func (t *fakeTimer) Reset(d time.Duration) {
	c := t.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drop(t.ch)
	select {
	case <-t.ch: // a firing nobody received
	default:
	}
	if d <= 0 {
		t.ch <- c.now
		return
	}
	c.waiters = append(c.waiters, fakeWaiter{at: c.now.Add(d), ch: t.ch})
}

func (t *fakeTimer) Stop() {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	t.clock.drop(t.ch)
}

// drop disarms the waiter on ch, if any. c.mu is held.
func (c *FakeClock) drop(ch chan time.Time) {
	for i, w := range c.waiters {
		if w.ch == ch {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// Advance moves the clock forward and fires every waiter whose deadline
// has been reached.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	sort.SliceStable(c.waiters, func(i, j int) bool {
		return c.waiters[i].at.Before(c.waiters[j].at)
	})
	rest := c.waiters[:0]
	for _, w := range c.waiters {
		if !w.at.After(c.now) {
			w.ch <- c.now
		} else {
			rest = append(rest, w)
		}
	}
	c.waiters = rest
}
