package resilience

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// The attempts and backoff shape every Retry caller shares.
const (
	maxAttempts = 3                     // calls, the first included
	baseDelay   = 10 * time.Millisecond // before the second attempt
	multiplier  = 2                     // growth factor per attempt
	// jitter spreads each delay uniformly within ±jitter of its nominal
	// value, decorrelating retry storms.
	jitter = 0.2
)

// RetryConfig tunes Retry. The zero value gets sensible defaults.
type RetryConfig struct {
	// Seed makes the jitter sequence deterministic (default 1).
	Seed int64
	// Clock drives the backoff sleeps (default the wall clock).
	Clock Clock
}

func (c RetryConfig) withDefaults() RetryConfig {
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
// d = baseDelay * multiplier^attempt; a nil rng gives d.
func backoffDelay(attempt int, rng *rand.Rand) time.Duration {
	d := float64(baseDelay) * math.Pow(multiplier, float64(attempt))
	if rng != nil {
		d *= 1 + jitter*(2*rng.Float64()-1)
	}
	return time.Duration(d)
}

// Retry calls fn up to maxAttempts (3) times with jittered exponential
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
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			if rng == nil {
				rng = rand.New(rand.NewSource(cfg.Seed))
			}
			backoff := cfg.Clock.NewTimer(backoffDelay(attempt-1, rng))
			select {
			case <-backoff.C():
			case <-ctx.Done():
			}
			backoff.Stop()
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
	return fmt.Errorf("resilience: %d attempts failed: %w", maxAttempts, err)
}
