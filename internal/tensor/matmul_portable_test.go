//go:build !amd64 || purego

package tensor

// cpuTiers lists every kernel tier this build has: the portable loop.
func cpuTiers() []tier { return []tier{tierPortable} }
