//go:build race

package nn

// raceEnabled reports whether the race detector instruments this build.
// Under -race sync.Pool discards items at random by design, so the
// allocation bound on the pooled Score path does not hold and skips itself.
const raceEnabled = true
