package resilience

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// RetryConfig tunes Retry. The zero value gets sensible defaults.
type RetryConfig struct {
	// MaxAttempts is the total number of calls, including the first
	// (default 3).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default 10ms).
	BaseDelay time.Duration
	// MaxDelay caps the un-jittered backoff (default 1s).
	MaxDelay time.Duration
	// Multiplier is the exponential growth factor (default 2).
	Multiplier float64
	// Jitter spreads each delay uniformly within ±Jitter fraction of
	// its nominal value, decorrelating retry storms. Must lie in
	// [0, 1); zero and out-of-range values fall back to the default 0.2.
	Jitter float64
	// Seed makes the jitter sequence deterministic (default 1).
	Seed int64
	// Clock drives the backoff sleeps (default the wall clock).
	Clock Clock
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 10 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = time.Second
	}
	if c.Multiplier <= 1 {
		c.Multiplier = 2
	}
	if c.Jitter == 0 {
		c.Jitter = 0.2
	}
	if c.Jitter < 0 || c.Jitter >= 1 {
		c.Jitter = 0.2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Clock == nil {
		c.Clock = Real
	}
	return c
}

// BackoffDelay returns the jittered backoff before retry number attempt
// (0-based: attempt 0 is the delay between the first and second calls).
// The result lies in [d*(1-Jitter), d*(1+Jitter)] where
// d = min(BaseDelay * Multiplier^attempt, MaxDelay).
func BackoffDelay(cfg RetryConfig, attempt int, rng *rand.Rand) time.Duration {
	cfg = cfg.withDefaults()
	d := float64(cfg.BaseDelay) * math.Pow(cfg.Multiplier, float64(attempt))
	if d > float64(cfg.MaxDelay) {
		d = float64(cfg.MaxDelay)
	}
	if rng != nil && cfg.Jitter > 0 {
		d *= 1 + cfg.Jitter*(2*rng.Float64()-1)
	}
	return time.Duration(d)
}

// Retry calls fn up to MaxAttempts times with jittered exponential
// backoff between attempts, stopping early on success or context
// cancellation. The returned error wraps the last attempt's error (or
// the context's when cancelled mid-backoff).
func Retry(ctx context.Context, cfg RetryConfig, fn func(context.Context) error) error {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var err error
	for attempt := 0; attempt < cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-cfg.Clock.After(BackoffDelay(cfg, attempt-1, rng)):
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

// Supervise drives one unit of work (a scan shard, one oracle labeling)
// to success or to the end of its attempt budget, and returns how many
// attempts ran. It is Retry with the worker discipline the scan farm
// and the data engine share: the caller seeds cfg per unit, so retry
// storms decorrelate but stay deterministic; every attempt runs under
// its own deadline budget (see WithBudget) and is told its 1-based
// number; and br sees every outcome. On exhaustion the error wraps the
// last attempt's, and the caller quarantines the unit: one poison unit
// costs itself, never the run.
func Supervise(ctx context.Context, cfg RetryConfig, br *Breaker, budget time.Duration,
	attempt func(ctx context.Context, n int) error) (attempts int, err error) {
	err = Retry(ctx, cfg, func(ctx context.Context) error {
		// A tripped breaker pauses for the cool-down instead of failing
		// the unit: breaker rejections are a health signal about the
		// worker or the oracle, not evidence the unit is poison, and
		// waiting keeps a sick dependency from burning healthy units'
		// attempts.
		for !br.Allow() {
			wait := br.RetryAfter()
			if wait <= 0 {
				wait = 10 * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-br.cfg.Clock.After(wait):
			}
		}
		attempts++
		actx, cancel := WithBudget(ctx, budget)
		err := attempt(actx, attempts)
		cancel()
		if err != nil && ctx.Err() != nil {
			// The caller cancelled mid-attempt: don't charge the breaker
			// or keep retrying.
			br.Record(nil)
			return ctx.Err()
		}
		br.Record(err)
		return err
	})
	return attempts, err
}
