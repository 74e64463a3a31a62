//go:build race

package lithosim

// raceEnabled reports whether the race detector instruments this build.
// Under -race sync.Pool discards items at random by design, so the
// allocation bounds on the pooled paths do not hold and skip themselves.
const raceEnabled = true
