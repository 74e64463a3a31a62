package resilience

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// TestBreakerStateTable drives the breaker through its full state
// machine with a scripted sequence of operations.
func TestBreakerStateTable(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	var transitions []BreakerState
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 3,
		OpenTimeout:      10 * time.Second,
		HalfOpenProbes:   2,
		Clock:            clk,
		OnStateChange:    func(s BreakerState) { transitions = append(transitions, s) },
	})

	steps := []struct {
		name string
		op   func()
		want BreakerState
	}{
		{"initially closed", func() {}, StateClosed},
		{"fail 1", func() { b.Record(errBoom) }, StateClosed},
		{"fail 2", func() { b.Record(errBoom) }, StateClosed},
		{"success resets streak", func() { b.Record(nil) }, StateClosed},
		{"fail 1 again", func() { b.Record(errBoom) }, StateClosed},
		{"fail 2 again", func() { b.Record(errBoom) }, StateClosed},
		{"fail 3 trips", func() { b.Record(errBoom) }, StateOpen},
		{"open rejects", func() {
			if b.Allow() {
				t.Error("open breaker admitted a call")
			}
		}, StateOpen},
		{"cool-down not elapsed", func() { clk.Advance(9 * time.Second) }, StateOpen},
		{"still rejecting", func() {
			if b.Allow() {
				t.Error("breaker admitted before cool-down")
			}
		}, StateOpen},
		{"cool-down elapses, probe admitted", func() {
			clk.Advance(time.Second)
			if !b.Allow() {
				t.Error("half-open breaker rejected first probe")
			}
		}, StateHalfOpen},
		{"second probe admitted", func() {
			if !b.Allow() {
				t.Error("half-open breaker rejected second probe")
			}
		}, StateHalfOpen},
		{"probe overflow rejected", func() {
			if b.Allow() {
				t.Error("half-open breaker over-admitted probes")
			}
		}, StateHalfOpen},
		{"one probe success not enough", func() { b.Record(nil) }, StateHalfOpen},
		{"second probe success closes", func() { b.Record(nil) }, StateClosed},
	}
	for _, s := range steps {
		s.op()
		if got := b.State(); got != s.want {
			t.Fatalf("%s: state = %v, want %v", s.name, got, s.want)
		}
	}

	// A probe failure in half-open re-opens immediately.
	for i := 0; i < 3; i++ {
		b.Record(errBoom)
	}
	clk.Advance(10 * time.Second)
	if !b.Allow() {
		t.Fatal("probe rejected after cool-down")
	}
	b.Record(errBoom)
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after probe failure = %v, want open", got)
	}
	if ra := b.RetryAfter(); ra != 10*time.Second {
		t.Fatalf("RetryAfter = %v, want 10s", ra)
	}

	wantTransitions := []BreakerState{
		StateClosed, StateOpen, StateHalfOpen, StateClosed, StateOpen, StateHalfOpen, StateOpen,
	}
	if len(transitions) != len(wantTransitions) {
		t.Fatalf("transitions = %v, want %v", transitions, wantTransitions)
	}
	for i := range transitions {
		if transitions[i] != wantTransitions[i] {
			t.Fatalf("transition %d = %v, want %v", i, transitions[i], wantTransitions[i])
		}
	}
}

// TestBreakerConcurrent hammers Allow/Record from many goroutines under
// the race detector; only invariant checked here is "no race, no panic"
// plus a terminal state that is one of the three valid states.
func TestBreakerConcurrent(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 4, OpenTimeout: time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if b.Allow() {
					if (g+i)%3 == 0 {
						b.Record(errBoom)
					} else {
						b.Record(nil)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if s := b.State(); s != StateClosed && s != StateOpen && s != StateHalfOpen {
		t.Fatalf("invalid terminal state %d", s)
	}
}

// TestShedderBurstAndRefill checks exact token accounting on a frozen
// clock and refill after advancing it.
func TestShedderBurstAndRefill(t *testing.T) {
	clk := NewFakeClock(time.Unix(100, 0))
	s := NewShedder(ShedderConfig{Rate: 2, Burst: 3, Clock: clk})
	for i := 0; i < 3; i++ {
		if ok, _ := s.Allow(); !ok {
			t.Fatalf("request %d shed within burst", i)
		}
	}
	ok, retry := s.Allow()
	if ok {
		t.Fatal("admitted past burst on frozen clock")
	}
	// One token accrues in 1/Rate = 500ms.
	if retry <= 0 || retry > 500*time.Millisecond {
		t.Fatalf("retryAfter = %v, want (0, 500ms]", retry)
	}
	clk.Advance(retry)
	if ok, _ := s.Allow(); !ok {
		t.Fatal("shed after advertised retry-after elapsed")
	}
	// Refill never exceeds burst.
	clk.Advance(time.Hour)
	admitted := 0
	for {
		ok, _ := s.Allow()
		if !ok {
			break
		}
		admitted++
	}
	if admitted != 3 {
		t.Fatalf("admitted %d after long idle, want burst=3", admitted)
	}
}

// TestShedderConcurrent runs concurrent Allow calls on a frozen clock:
// exactly Burst requests may be admitted, regardless of interleaving.
func TestShedderConcurrent(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	s := NewShedder(ShedderConfig{Rate: 1, Burst: 100, Clock: clk})
	var admitted sync.WaitGroup
	var count int64
	var mu sync.Mutex
	for g := 0; g < 10; g++ {
		admitted.Add(1)
		go func() {
			defer admitted.Done()
			for i := 0; i < 100; i++ {
				if ok, _ := s.Allow(); ok {
					mu.Lock()
					count++
					mu.Unlock()
				}
			}
		}()
	}
	admitted.Wait()
	if count != 100 {
		t.Fatalf("admitted %d of 1000 on frozen clock, want exactly burst=100", count)
	}
}

// recordClock satisfies Clock, fires After immediately, and records the
// requested delays so Retry's backoff schedule is observable without
// sleeping.
type recordClock struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (c *recordClock) Now() time.Time { return time.Unix(0, 0) }

func (c *recordClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	c.delays = append(c.delays, d)
	c.mu.Unlock()
	ch := make(chan time.Time, 1)
	ch <- time.Unix(0, 0)
	return ch
}

// TestRetryBackoffBounds asserts every delay Retry schedules lies in
// the documented jitter envelope, with no wall-clock sleeps involved.
func TestRetryBackoffBounds(t *testing.T) {
	clk := &recordClock{}
	cfg := RetryConfig{
		MaxAttempts: 6,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    200 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.25,
		Seed:        42,
		Clock:       clk,
	}
	calls := 0
	err := Retry(context.Background(), cfg, func(context.Context) error {
		calls++
		return errBoom
	})
	if err == nil || !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want wrapped errBoom", err)
	}
	if calls != 6 {
		t.Fatalf("calls = %d, want 6", calls)
	}
	if len(clk.delays) != 5 {
		t.Fatalf("delays scheduled = %d, want 5", len(clk.delays))
	}
	nominal := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 160 * time.Millisecond,
	}
	for i, d := range clk.delays {
		lo := time.Duration(float64(nominal[i]) * (1 - cfg.Jitter))
		hi := time.Duration(float64(nominal[i]) * (1 + cfg.Jitter))
		if d < lo || d > hi {
			t.Errorf("delay %d = %v outside [%v, %v]", i, d, lo, hi)
		}
	}
	// Jitter is deterministic per seed.
	rng1 := rand.New(rand.NewSource(7))
	rng2 := rand.New(rand.NewSource(7))
	for a := 0; a < 8; a++ {
		if d1, d2 := BackoffDelay(cfg, a, rng1), BackoffDelay(cfg, a, rng2); d1 != d2 {
			t.Fatalf("attempt %d: same seed gave %v and %v", a, d1, d2)
		}
	}
	// MaxDelay caps the nominal delay even for huge attempt numbers.
	if d := BackoffDelay(cfg, 50, nil); d != cfg.MaxDelay {
		t.Fatalf("un-jittered capped delay = %v, want %v", d, cfg.MaxDelay)
	}
}

func TestRetrySucceedsEarly(t *testing.T) {
	clk := &recordClock{}
	calls := 0
	err := Retry(context.Background(), RetryConfig{MaxAttempts: 5, Clock: clk}, func(context.Context) error {
		calls++
		if calls < 3 {
			return errBoom
		}
		return nil
	})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if calls != 3 || len(clk.delays) != 2 {
		t.Fatalf("calls = %d, delays = %d; want 3 and 2", calls, len(clk.delays))
	}
}

func TestRetryHonorsCancellation(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0)) // never advanced: backoff blocks
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- Retry(ctx, RetryConfig{MaxAttempts: 3, Clock: clk}, func(context.Context) error {
			return errBoom
		})
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Retry did not return after cancellation")
	}
}

// askClock is a FakeClock that reports every After call, so a test can
// wait for the code under test to start waiting instead of sleeping.
type askClock struct {
	*FakeClock
	asked chan time.Duration
}

func (c askClock) After(d time.Duration) <-chan time.Time {
	ch := c.FakeClock.After(d)
	c.asked <- d
	return ch
}

// TestSupervise pins the three rules of the supervised-attempt loop: a
// tripped breaker pauses the unit for the cool-down on the breaker's
// own clock instead of failing it, every attempt gets its number and a
// budgeted context, and a caller that cancels mid-attempt neither
// charges the breaker nor retries.
func TestSupervise(t *testing.T) {
	clk := askClock{NewFakeClock(time.Unix(0, 0)), make(chan time.Duration)}
	br := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Second, Clock: clk})
	rcfg := RetryConfig{MaxAttempts: 3, Clock: &recordClock{}}
	var seen []int
	type outcome struct {
		attempts int
		err      error
	}
	done := make(chan outcome, 1)
	go func() {
		n, err := Supervise(context.Background(), rcfg, br, time.Minute, func(ctx context.Context, n int) error {
			seen = append(seen, n)
			if _, ok := ctx.Deadline(); !ok {
				return errors.New("attempt context has no budget")
			}
			if n == 1 {
				return errBoom
			}
			return nil
		})
		done <- outcome{n, err}
	}()
	// The first failure trips the breaker; the second attempt waits out
	// the whole cool-down before it runs.
	if wait := <-clk.asked; wait != time.Second {
		t.Fatalf("breaker pause = %v, want the 1s cool-down", wait)
	}
	select {
	case out := <-done:
		t.Fatalf("unit finished (%+v) while the breaker was open", out)
	default:
	}
	clk.Advance(time.Second)
	if out := <-done; out.err != nil || out.attempts != 2 || !reflect.DeepEqual(seen, []int{1, 2}) {
		t.Fatalf("attempts = %d (%v), err = %v; want 2 attempts numbered 1, 2", out.attempts, seen, out.err)
	}
	if br.State() != StateClosed {
		t.Fatalf("breaker %v after the successful probe, want closed", br.State())
	}

	// Exhaustion: every attempt fails, the error wraps the last one.
	br = NewBreaker(BreakerConfig{FailureThreshold: 10})
	n, err := Supervise(context.Background(), rcfg, br, 0, func(context.Context, int) error { return errBoom })
	if n != 3 || !errors.Is(err, errBoom) {
		t.Fatalf("exhaustion: attempts = %d, err = %v; want 3 and wrapped errBoom", n, err)
	}

	// Caller cancelled mid-attempt: Record(nil) and stop.
	br = NewBreaker(BreakerConfig{FailureThreshold: 1})
	ctx, cancel := context.WithCancel(context.Background())
	n, err = Supervise(ctx, rcfg, br, 0, func(context.Context, int) error {
		cancel()
		return errBoom
	})
	if n != 1 || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled: attempts = %d, err = %v; want 1 and context.Canceled", n, err)
	}
	if br.State() != StateClosed {
		t.Fatalf("cancellation charged the breaker: %v", br.State())
	}
}

func TestWithBudget(t *testing.T) {
	// No parent deadline: budget becomes the deadline.
	ctx, cancel := WithBudget(context.Background(), 50*time.Millisecond)
	defer cancel()
	dl, ok := ctx.Deadline()
	if rem := time.Until(dl); !ok || rem <= 0 || rem > 50*time.Millisecond {
		t.Fatalf("remaining = %v ok=%v, want (0, 50ms]", rem, ok)
	}
	// Tighter parent deadline wins.
	parent, pcancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer pcancel()
	child, ccancel := WithBudget(parent, time.Hour)
	defer ccancel()
	if dl, _ := child.Deadline(); time.Until(dl) > 20*time.Millisecond {
		t.Fatalf("budget loosened a tighter parent deadline: %v", time.Until(dl))
	}
	// Non-positive budget is a no-op.
	same, scancel := WithBudget(parent, 0)
	defer scancel()
	if same != parent {
		t.Fatal("zero budget should return the parent context")
	}
}

func TestFakeClockAfter(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	ch := clk.After(time.Second)
	select {
	case <-ch:
		t.Fatal("fired early")
	default:
	}
	clk.Advance(999 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("fired before deadline")
	default:
	}
	clk.Advance(time.Millisecond)
	select {
	case <-ch:
	default:
		t.Fatal("did not fire at deadline")
	}
	// Non-positive durations fire immediately.
	select {
	case <-clk.After(0):
	default:
		t.Fatal("After(0) did not fire immediately")
	}
}
