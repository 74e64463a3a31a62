//go:build race

package serve

// raceEnabled reports whether the race detector instruments this build.
// The hostile-body test parses a million rectangles one request at a
// time, ~15x slower under race and with nothing concurrent to check, so
// it skips itself; so does the hit allocation test, whose count the
// instrumentation changes.
const raceEnabled = true
