//go:build race

package scanfarm

// raceEnabled reports whether the race detector instruments this build.
// Under -race sync.Pool discards items at random by design, so the
// allocation bound on the miss path's pooled raster does not hold and
// skips itself.
const raceEnabled = true
