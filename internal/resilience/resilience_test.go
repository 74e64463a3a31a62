package resilience

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// TestBreakerStateTable drives the breaker through its full state
// machine with a scripted sequence of operations.
func TestBreakerStateTable(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 3,
		OpenTimeout:      10 * time.Second,
		Clock:            clk,
	})

	steps := []struct {
		name string
		op   func()
		want BreakerState
	}{
		{"initially closed", func() {}, StateClosed},
		{"fail 1", func() { b.Record(errBoom) }, StateClosed},
		{"fail 2", func() { b.Record(errBoom) }, StateClosed},
		{"a success keeps the window's failures", func() { b.Record(nil) }, StateClosed},
		{"fail 3 among the last 6 trips", func() { b.Record(errBoom) }, StateOpen},
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
				t.Error("half-open breaker rejected the first probe")
			}
		}, StateHalfOpen},
		{"second probe rejected", func() {
			if b.Allow() {
				t.Error("half-open breaker admitted a second probe")
			}
		}, StateHalfOpen},
		{"probe success closes", func() { b.Record(nil) }, StateClosed},
		{"fail twice", func() { b.Record(errBoom); b.Record(errBoom) }, StateClosed},
		{"six successes age them out", func() {
			for i := 0; i < 6; i++ {
				b.Record(nil)
			}
		}, StateClosed},
		{"two more fails", func() { b.Record(errBoom); b.Record(errBoom) }, StateClosed},
		{"a third trips again", func() { b.Record(errBoom) }, StateOpen},
		{"cool-down elapses again, probe admitted", func() {
			clk.Advance(10 * time.Second)
			if !b.Allow() {
				t.Error("probe rejected after cool-down")
			}
		}, StateHalfOpen},
		// A probe failure in half-open re-opens immediately.
		{"probe failure re-opens", func() { b.Record(errBoom) }, StateOpen},
	}
	for _, s := range steps {
		s.op()
		if got := b.State(); got != s.want {
			t.Fatalf("%s: state = %v, want %v", s.name, got, s.want)
		}
	}
	if ra := b.RetryAfter(); ra != 10*time.Second {
		t.Fatalf("RetryAfter = %v, want 10s", ra)
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
	s := NewShedder(ShedderConfig{Rate: 2, Clock: clk})
	for i := 0; i < 2; i++ {
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
	if admitted != 2 {
		t.Fatalf("admitted %d after long idle, want burst=Rate=2", admitted)
	}

	// At Rate 3 a token takes 1/3 s, which no whole number of
	// nanoseconds equals: the hint must round up, or a client that waits
	// exactly that long finds 0.999999999 tokens and is shed again.
	clk = NewFakeClock(time.Unix(100, 0))
	s = NewShedder(ShedderConfig{Rate: 3, Clock: clk})
	for i := 0; i < 3; i++ {
		if ok, _ := s.Allow(); !ok {
			t.Fatalf("rate 3: request %d shed within burst", i)
		}
	}
	if ok, retry = s.Allow(); ok {
		t.Fatal("rate 3: admitted past burst on frozen clock")
	}
	clk.Advance(retry)
	if ok, _ := s.Allow(); !ok {
		t.Fatalf("rate 3: shed after the advertised retry-after %v elapsed", retry)
	}
}

// TestShedderConcurrent runs concurrent Allow calls on a frozen clock:
// exactly the bucket's capacity, Rate, is admitted, regardless of
// interleaving.
func TestShedderConcurrent(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	s := NewShedder(ShedderConfig{Rate: 100, Clock: clk})
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

// recordClock satisfies Clock, fires every timer at once, and records
// the requested delays so Retry's backoff schedule is observable without
// sleeping.
type recordClock struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (c *recordClock) Now() time.Time { return time.Unix(0, 0) }

func (c *recordClock) NewTimer(d time.Duration) Timer {
	c.mu.Lock()
	c.delays = append(c.delays, d)
	c.mu.Unlock()
	return NewFakeClock(time.Unix(0, 0)).NewTimer(0)
}

// TestRetryBackoffBounds asserts Retry makes maxAttempts calls and that
// every delay it schedules lies in the jitter envelope around the shared
// backoff shape (10 ms doubling, ±20 %), with no wall-clock sleeps
// involved.
func TestRetryBackoffBounds(t *testing.T) {
	clk := &recordClock{}
	cfg := RetryConfig{Seed: 42, Clock: clk}
	calls := 0
	err := Retry(context.Background(), cfg, func(context.Context) error {
		calls++
		return errBoom
	})
	if err == nil || !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want wrapped errBoom", err)
	}
	if calls != maxAttempts {
		t.Fatalf("calls = %d, want %d", calls, maxAttempts)
	}
	if len(clk.delays) != maxAttempts-1 {
		t.Fatalf("delays scheduled = %d, want %d", len(clk.delays), maxAttempts-1)
	}
	for i, d := range clk.delays {
		nominal := baseDelay << i
		lo := time.Duration(float64(nominal) * (1 - jitter))
		hi := time.Duration(float64(nominal) * (1 + jitter))
		if d < lo || d > hi {
			t.Errorf("delay %d = %v outside [%v, %v]", i, d, lo, hi)
		}
	}
	// Jitter is deterministic per seed.
	rng1 := rand.New(rand.NewSource(7))
	rng2 := rand.New(rand.NewSource(7))
	for a := 0; a < 8; a++ {
		if d1, d2 := backoffDelay(a, rng1), backoffDelay(a, rng2); d1 != d2 {
			t.Fatalf("attempt %d: same seed gave %v and %v", a, d1, d2)
		}
	}
}

func TestRetrySucceedsEarly(t *testing.T) {
	clk := &recordClock{}
	calls := 0
	err := Retry(context.Background(), RetryConfig{Clock: clk}, func(context.Context) error {
		calls++
		if calls < 2 {
			return errBoom
		}
		return nil
	})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if calls != 2 || len(clk.delays) != 1 {
		t.Fatalf("calls = %d, delays = %d; want 2 and 1", calls, len(clk.delays))
	}
}

// TestRetrySeedsOnlyToBack: a call that succeeds first time builds no
// jitter source (nearly every oracle verdict is one), and a
// call that retries draws its delays from a source seeded by Seed, as
// when the source was built up front.
func TestRetrySeedsOnlyToBack(t *testing.T) {
	ctx := context.Background()
	cfg := RetryConfig{Seed: 9}
	ok := func(context.Context) error { return nil }
	if allocs := testing.AllocsPerRun(100, func() {
		if err := Retry(ctx, cfg, ok); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a first-try success allocates %v times, want 0", allocs)
	}
	clk := &recordClock{}
	cfg = RetryConfig{Seed: 9, Clock: clk}
	if err := Retry(ctx, cfg, func(context.Context) error { return errBoom }); !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want wrapped errBoom", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i, d := range clk.delays {
		if want := backoffDelay(i, rng); d != want {
			t.Fatalf("delay %d = %v, want %v from a source seeded %d", i, d, want, cfg.Seed)
		}
	}
	if len(clk.delays) != maxAttempts-1 {
		t.Fatalf("delays scheduled = %d, want %d", len(clk.delays), maxAttempts-1)
	}
}

func TestRetryHonorsCancellation(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0)) // never advanced: backoff blocks
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- Retry(ctx, RetryConfig{Clock: clk}, func(context.Context) error {
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

// TestFakeClockTimer: a fake timer fires when Advance reaches its
// deadline, at once for a non-positive duration, never once stopped, and
// again after a Reset.
func TestFakeClockTimer(t *testing.T) {
	fired := func(tm Timer) bool {
		select {
		case <-tm.C():
			return true
		default:
			return false
		}
	}
	clk := NewFakeClock(time.Unix(0, 0))
	tm := clk.NewTimer(time.Second)
	if fired(tm) {
		t.Fatal("fired early")
	}
	clk.Advance(999 * time.Millisecond)
	if fired(tm) {
		t.Fatal("fired before deadline")
	}
	clk.Advance(time.Millisecond)
	if !fired(tm) {
		t.Fatal("did not fire at deadline")
	}
	tm.Reset(time.Second)
	clk.Advance(time.Second)
	if !fired(tm) {
		t.Fatal("did not fire again after Reset")
	}
	tm.Reset(time.Second)
	tm.Stop()
	clk.Advance(time.Hour)
	if fired(tm) {
		t.Fatal("fired after Stop")
	}
	if !fired(clk.NewTimer(0)) {
		t.Fatal("NewTimer(0) did not fire immediately")
	}
}
