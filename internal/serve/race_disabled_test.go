//go:build !race

package serve

const raceEnabled = false
