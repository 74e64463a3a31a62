package resilience

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// The backoff shape every Retry caller shares.
const (
	baseDelay  = 10 * time.Millisecond // before the second attempt
	maxDelay   = time.Second           // cap on the un-jittered delay
	multiplier = 2                     // growth factor per attempt
	// jitter spreads each delay uniformly within ±jitter of its nominal
	// value, decorrelating retry storms.
	jitter = 0.2
)

// RetryConfig tunes Retry. The zero value gets sensible defaults.
type RetryConfig struct {
	// MaxAttempts is the total number of calls, including the first
	// (default 3).
	MaxAttempts int
	// Seed makes the jitter sequence deterministic (default 1).
	Seed int64
	// Clock drives the backoff sleeps (default the wall clock).
	Clock Clock
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Clock == nil {
		c.Clock = Real
	}
	return c
}

// backoffDelay returns the jittered backoff before retry number attempt
// (0-based: attempt 0 is the delay between the first and second calls).
// The result lies in [d*(1-jitter), d*(1+jitter)] where
// d = min(baseDelay * multiplier^attempt, maxDelay); a nil rng gives d.
func backoffDelay(attempt int, rng *rand.Rand) time.Duration {
	d := float64(baseDelay) * math.Pow(multiplier, float64(attempt))
	if d > float64(maxDelay) {
		d = float64(maxDelay)
	}
	if rng != nil {
		d *= 1 + jitter*(2*rng.Float64()-1)
	}
	return time.Duration(d)
}

// Retry calls fn up to MaxAttempts times with jittered exponential
// backoff between attempts, stopping early on success or on context
// cancellation. The returned error wraps the last attempt's error (or
// the context's when cancelled mid-backoff). Its one caller is
// lithosim.Verify, whose attempts each run under a deadline that load
// can blow on one call and not the next.
func Retry(ctx context.Context, cfg RetryConfig, fn func(context.Context) error) error {
	cfg = cfg.withDefaults()
	var (
		rng *rand.Rand // seeded before the first backoff: a first-try success pays for no source
		err error
	)
	for attempt := 0; attempt < cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if rng == nil {
				rng = rand.New(rand.NewSource(cfg.Seed))
			}
			select {
			case <-cfg.Clock.After(backoffDelay(attempt-1, rng)):
			case <-ctx.Done():
			}
			// Checked after the select, not in it: when the backoff has
			// also elapsed the select may pick either case, and a cancelled
			// caller must never see another attempt.
			if ctx.Err() != nil {
				return fmt.Errorf("resilience: retry cancelled after %d attempts (last: %v): %w",
					attempt, err, ctx.Err())
			}
		}
		if err = fn(ctx); err == nil {
			return nil
		}
	}
	return fmt.Errorf("resilience: %d attempts failed: %w", cfg.MaxAttempts, err)
}
