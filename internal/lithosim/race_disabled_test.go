//go:build !race

package lithosim

const raceEnabled = false
