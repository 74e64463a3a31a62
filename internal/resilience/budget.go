package resilience

import (
	"context"
	"time"
)

// Deadline budgets are wall-clock by necessity: context deadlines are
// enforced by the runtime against real time, so WithBudget does not take
// a Clock.

// WithBudget derives a context that expires budget from now, unless the
// parent already expires sooner. A non-positive budget returns the
// parent unchanged. The cancel func must always be called.
func WithBudget(ctx context.Context, budget time.Duration) (context.Context, context.CancelFunc) {
	if budget <= 0 {
		return ctx, func() {}
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= budget {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, budget)
}
