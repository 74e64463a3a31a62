//go:build !race

package scanfarm

const raceEnabled = false
