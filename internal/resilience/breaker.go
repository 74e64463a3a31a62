package resilience

import (
	"errors"
	"sync"
	"time"
)

// BreakerState is the circuit breaker state machine position. The
// numeric values are stable and exported as a telemetry gauge:
// 0 = closed, 1 = half-open, 2 = open.
type BreakerState int32

const (
	// StateClosed admits every call; FailureThreshold failures among
	// the last 2·FailureThreshold outcomes trip the breaker.
	StateClosed BreakerState = iota
	// StateHalfOpen has admitted the one probe call after the
	// cool-down and refuses the rest; the probe's failure re-opens,
	// its success closes.
	StateHalfOpen
	// StateOpen rejects every call until the cool-down elapses.
	StateOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateHalfOpen:
		return "half-open"
	default:
		return "open"
	}
}

// ErrOpen is returned (or reported) when the breaker rejects a call.
var ErrOpen = errors.New("resilience: circuit breaker open")

// BreakerConfig tunes a Breaker. The zero value gets sensible defaults.
type BreakerConfig struct {
	// FailureThreshold is how many of the last 2·FailureThreshold
	// outcomes in the closed state must fail to trip the breaker
	// (default 5): a run of that many failures trips it, and so do as
	// many interleaved with successes.
	FailureThreshold int
	// OpenTimeout is the cool-down after tripping before the probe
	// call is admitted (default 5s).
	OpenTimeout time.Duration
	// Clock drives the cool-down timer (default the wall clock).
	Clock Clock
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = 5 * time.Second
	}
	if c.Clock == nil {
		c.Clock = Real
	}
	return c
}

// Breaker is a closed/open/half-open circuit breaker over a window of
// the last 2·FailureThreshold outcomes. Allow admits or rejects a call;
// Record reports the outcome of an admitted call. Safe for concurrent
// use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	window   []bool // the last outcomes while closed, true for a failure
	next     int    // the slot the next outcome overwrites
	fails    int    // failures in window
	openedAt time.Time
}

// NewBreaker constructs a Breaker in the closed state. A telemetry
// gauge of its state is pulled through State at scrape time.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{cfg: cfg, window: make([]bool, 2*cfg.FailureThreshold)}
}

// trip opens the breaker and empties the window. Callers hold b.mu.
func (b *Breaker) trip() {
	b.state = StateOpen
	b.openedAt = b.cfg.Clock.Now()
	clear(b.window)
	b.fails = 0
}

// Allow reports whether a call may proceed. In the open state it
// returns false until OpenTimeout has elapsed, then moves to half-open
// and admits that one call as the probe; half-open refuses every other
// call until the probe's outcome is recorded. Every admitted call must
// be followed by exactly one Record.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		return true
	case StateOpen:
		if b.cfg.Clock.Now().Sub(b.openedAt) < b.cfg.OpenTimeout {
			return false
		}
		b.state = StateHalfOpen
		return true
	default: // StateHalfOpen: the probe is out
		return false
	}
}

// Record reports the outcome of an admitted call; a nil error is a
// success. It returns whether this outcome tripped the breaker.
func (b *Breaker) Record(err error) (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		if b.window[b.next] {
			b.fails--
		}
		b.window[b.next] = err != nil
		b.next = (b.next + 1) % len(b.window)
		if err != nil {
			b.fails++
		}
		if b.fails < b.cfg.FailureThreshold {
			return false
		}
	case StateHalfOpen:
		if err == nil {
			b.state = StateClosed // the window is empty since the trip
			return false
		}
	default: // StateOpen: a straggler outcome from before the trip; ignore.
		return false
	}
	b.trip()
	return true
}

// State returns the current state without side effects: an elapsed
// cool-down is reported as open until an Allow performs the transition.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// RetryAfter returns the remaining cool-down when the breaker is open,
// and zero otherwise.
func (b *Breaker) RetryAfter() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != StateOpen {
		return 0
	}
	rem := b.cfg.OpenTimeout - b.cfg.Clock.Now().Sub(b.openedAt)
	if rem < 0 {
		return 0
	}
	return rem
}
