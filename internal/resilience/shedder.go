package resilience

import (
	"math"
	"sync"
	"time"
)

// ShedderConfig tunes a Shedder.
type ShedderConfig struct {
	// Rate is the sustained admission rate in requests per second.
	// Must be positive. The bucket holds max(Rate, 1) tokens: that many
	// requests may be admitted back-to-back after an idle period.
	Rate float64
	// Clock drives refill accounting (default the wall clock).
	Clock Clock
}

// Shedder is a token-bucket admission controller: each admitted request
// spends one token, tokens refill at Rate per second up to the bucket's
// capacity, max(Rate, 1). Rejections happen before any work is queued,
// so an overloaded server spends no compute on traffic it cannot serve.
// Safe for concurrent use.
type Shedder struct {
	cfg   ShedderConfig
	burst float64 // bucket capacity

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// NewShedder constructs a full bucket. Rate must be positive.
func NewShedder(cfg ShedderConfig) *Shedder {
	if cfg.Rate <= 0 {
		cfg.Rate = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = Real
	}
	burst := max(cfg.Rate, 1)
	return &Shedder{cfg: cfg, burst: burst, tokens: burst, last: cfg.Clock.Now()}
}

// Allow spends one token if available. When the bucket is empty it
// returns false and the duration until the next token accrues — the
// Retry-After hint for a 429 response — rounded up to a whole
// nanosecond, so a client that waits exactly that long is admitted.
func (s *Shedder) Allow() (ok bool, retryAfter time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Clock.Now()
	if dt := now.Sub(s.last).Seconds(); dt > 0 {
		s.tokens = min(s.tokens+dt*s.cfg.Rate, s.burst)
	}
	s.last = now
	if s.tokens >= 1 {
		s.tokens--
		return true, 0
	}
	return false, time.Duration(math.Ceil((1 - s.tokens) / s.cfg.Rate * float64(time.Second)))
}
