//go:build !race

package features

const raceEnabled = false
